//! Property tests: `parse ∘ write = id` on arbitrary canonical [`Value`]
//! trees, for both the pretty and the compact writer.
//!
//! Canonical form (see the crate docs): non-negative integers are `Uint`,
//! or items of a packed `Uints` column, negative integers are `Int`,
//! floats are finite `Num`. Non-finite floats are excluded because they
//! intentionally round-trip through their string forms (`Num(inf)` parses
//! back as `Str("inf")` — covered by unit tests).

use osn_serde::Value;
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// Generate an arbitrary canonical value tree, at most `depth` levels deep.
fn gen_value(rng: &mut ChaCha12Rng, depth: u32) -> Value {
    // At depth 0 only scalars; otherwise containers with ~2/5 probability.
    let variant = if depth == 0 {
        rng.gen_range(0..6)
    } else {
        rng.gen_range(0..10)
    };
    match variant {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_range(0..2) == 1),
        2 => Value::Uint(rng.gen()),
        3 => Value::Int(-(rng.gen_range(1..=i64::MAX as u64) as i64)),
        4 => Value::Num(gen_finite_f64(rng)),
        5 => Value::Str(gen_string(rng)),
        6 | 7 => {
            let n = rng.gen_range(0..5);
            Value::Arr((0..n).map(|_| gen_value(rng, depth - 1)).collect())
        }
        8 => {
            // A packed integer column: written as, and read back equal to,
            // the `Arr` of `Uint`s.
            let n = rng.gen_range(1..6);
            Value::uints((0..n).map(|_| rng.gen()))
        }
        _ => {
            let n = rng.gen_range(0..5);
            Value::Obj(
                (0..n)
                    .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

fn gen_finite_f64(rng: &mut ChaCha12Rng) -> f64 {
    loop {
        let x = f64::from_bits(rng.gen());
        if x.is_finite() {
            return x;
        }
    }
}

fn gen_string(rng: &mut ChaCha12Rng) -> String {
    let n = rng.gen_range(0..12);
    (0..n)
        .map(|_| {
            // Mix ASCII (incl. escapes and controls) with multi-byte chars.
            match rng.gen_range(0..4) {
                0 => char::from(rng.gen_range(0u8..0x20)),
                1 => *['"', '\\', '/', 'π', 'Δ', '🦀', '\u{7f}', 'é']
                    .get(rng.gen_range(0..8usize))
                    .unwrap(),
                _ => char::from(rng.gen_range(0x20u8..0x7f)),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_write_is_identity(seed in 0u64..u64::MAX, depth in 0u32..4) {
        use rand::SeedableRng;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let v = gen_value(&mut rng, depth);

        let pretty = v.to_pretty();
        let reparsed = Value::parse(&pretty)
            .map_err(|e| format!("pretty parse failed: {e}\n{pretty}"))?;
        prop_assert_eq!(&reparsed, &v, "pretty roundtrip\n{}", pretty);

        let compact = v.to_compact();
        let reparsed = Value::parse(&compact)
            .map_err(|e| format!("compact parse failed: {e}\n{compact}"))?;
        prop_assert_eq!(&reparsed, &v, "compact roundtrip\n{}", compact);

        // Writing the reparsed tree reproduces the bytes exactly.
        prop_assert_eq!(Value::parse(&pretty).unwrap().to_pretty(), pretty);
        prop_assert_eq!(Value::parse(&compact).unwrap().to_compact(), compact);
    }
}
