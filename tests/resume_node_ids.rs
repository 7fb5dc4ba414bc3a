//! A server snapshot whose running job names a node outside the graph —
//! as a walker's `current` node, in its run's `pending` or `retry` fetch
//! queue, or among its dispatch ids (`delivered`, `refused`,
//! `seen_undelivered`, or the node of an `attempts` pair) — is refused by
//! `SessionServer::resume` with an error naming the job, the field and the
//! id. Such a snapshot used to resume fine, then panic with an index out of
//! bounds at the job's next fetch or carry the id into every later
//! checkpoint. Each field is tried with the first id past the graph and
//! with `u32::MAX`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use osn_sampling::datasets::gplus_like;
use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::prelude::*;
use osn_sampling::service::traffic::populate;

fn endpoint(network: &Arc<AttributedGraph>) -> SimulatedBatchOsn {
    let config = BatchConfig::new(6)
        .with_in_flight(3)
        .with_latency(0.002, 0.001)
        .with_failure_every(11)
        .with_drop_node_every(13)
        .with_seed(5);
    SimulatedBatchOsn::configured(SimulatedOsn::new_shared(Arc::clone(network)), config, None)
}

fn config() -> ServerConfig {
    ServerConfig::new().with_rounds_per_slice(2)
}

/// The field `key` of object `v`, mutably.
fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Obj(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no field `{key}`"))
                .1
        }
        other => panic!("expected an object, got {}", other.type_name()),
    }
}

/// Item `i` of the array `v` of objects, mutably.
fn item_mut(v: &mut Value, i: usize) -> &mut Value {
    match v {
        Value::Arr(items) => &mut items[i],
        other => panic!("expected an array of objects, got {}", other.type_name()),
    }
}

/// Write `id` into one field of a run snapshot.
type Tamper = dyn Fn(&mut Value, u64);

/// Append `ids` to the id list `v`.
fn append(v: &mut Value, ids: &[u64]) {
    let mut list: Vec<u64> = v.decode().unwrap();
    list.extend_from_slice(ids);
    *v = Value::arr(&list);
}

/// The id list `name` of a run's dispatch state, mutably.
fn dispatch<'a>(run: &'a mut Value, name: &str) -> &'a mut Value {
    field_mut(field_mut(run, "dispatch"), name)
}

/// Put `id` first in the id list `v`, in place of its first id if it has
/// one.
fn put_first(v: &mut Value, id: u64) {
    let mut ids: Vec<u64> = v.decode().unwrap();
    match ids.first_mut() {
        Some(first) => *first = id,
        None => ids.push(id),
    }
    *v = Value::arr(&ids);
}

#[test]
fn resume_refuses_out_of_range_node_ids_instead_of_panicking() {
    let network = Arc::new(gplus_like(Scale::Test, 7).network);
    let n = network.graph.node_count();
    assert_eq!(n, 500);
    let mut server = SessionServer::new(endpoint(&network), config());
    populate(&mut server, &TrafficConfig::new(6, 3).with_seed(7));
    for _ in 0..600 {
        assert!(server.step(), "the server settled before slice 600");
    }
    let snapshot = server.snapshot().unwrap();
    assert!(SessionServer::resume(endpoint(&network), config(), &snapshot).is_ok());
    let running = (0..server.job_count())
        .find(|&id| server.job_state(id) == JobState::Running)
        .expect("a job runs at slice 600");

    // Ids join a set at its end, so `delivered_unseen` stays a subset of
    // `delivered` and `seen_undelivered` stays apart from it.
    let fields: [(&str, &Tamper); 7] = [
        ("walkers[0].current", &|run, id| {
            *field_mut(item_mut(field_mut(run, "walkers"), 0), "current") = Value::Uint(id);
        }),
        ("pending", &|run, id| {
            put_first(field_mut(run, "pending"), id)
        }),
        ("retry", &|run, id| put_first(field_mut(run, "retry"), id)),
        ("dispatch.delivered", &|run, id| {
            append(dispatch(run, "delivered"), &[id])
        }),
        ("dispatch.refused", &|run, id| {
            append(dispatch(run, "refused"), &[id])
        }),
        ("dispatch.seen_undelivered", &|run, id| {
            append(dispatch(run, "seen_undelivered"), &[id])
        }),
        ("dispatch.attempts", &|run, id| {
            append(dispatch(run, "attempts"), &[id, 1])
        }),
    ];
    for (field, tamper) in fields {
        for id in [n as u64, u64::from(u32::MAX)] {
            let mut tampered = snapshot.clone();
            let job = item_mut(field_mut(&mut tampered, "jobs"), running);
            tamper(field_mut(job, "run"), id);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                SessionServer::resume(endpoint(&network), config(), &tampered)
            }))
            .unwrap_or_else(|_| panic!("resume panicked on {field} = {id}"));
            let err = outcome
                .err()
                .unwrap_or_else(|| panic!("{field} = {id} resumed"));
            assert!(err.starts_with(&format!("job {running}: ")), "{err}");
            assert!(err.contains(field), "error does not name `{field}`: {err}");
            assert!(
                err.contains(&id.to_string()),
                "error does not name {id}: {err}"
            );
        }
    }
}
