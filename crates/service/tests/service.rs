//! Integration tests of the session server: weighted fair-share
//! proportionality under contention, admission refusals, cross-tenant
//! cache synergy, traffic-generator determinism, the indexed scheduler's
//! picks against the reference rule, kill-at-slice-k snapshot/resume
//! bit-identity, and the refusal of tampered snapshots and specs.

use proptest::prelude::*;

use osn_client::{BatchConfig, RateLimitConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_graph::{
    CsrGraph, DeltaOverlay, EdgeMutation, GraphBuilder, MutationOp, MutationSchedule, NodeId,
    ScheduleSpec,
};
use osn_serde::Value;
use osn_service::traffic::{populate, TrafficConfig};
use osn_service::{Algorithm, JobSpec, JobState, ServerConfig, SessionServer};
use osn_walks::{Never, WalkOrchestrator};

/// A connected `n`-node graph: ring, chords, and a hub over the even
/// nodes — enough structure that walks spread and caches overlap.
fn test_graph(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.push_edge(i, (i + 1) % n);
        b.push_edge(i, (i * 11 + 5) % n);
    }
    for i in (2..n).step_by(2) {
        b.push_edge(0, i);
    }
    b.build().unwrap()
}

#[test]
fn fair_share_tracks_weights_under_contention() {
    // Three backlogged tenants with weights 1:2:4 fight over a budget far
    // below their demand. The scheduler equalizes charged/weight, so each
    // tenant's share of charged queries must land within 10% relative of
    // its weight share.
    let weights = [1.0, 2.0, 4.0];
    let endpoint = SimulatedBatchOsn::configured(
        SimulatedOsn::from_graph(test_graph(2000)),
        BatchConfig::new(8).with_in_flight(4),
        Some(600),
    );
    let mut server = SessionServer::new(endpoint, ServerConfig::new().with_rounds_per_slice(4));
    for (t, &w) in weights.iter().enumerate() {
        assert_eq!(server.add_tenant(format!("w{w}"), w), t);
    }
    for t in 0..weights.len() {
        for j in 0..4 {
            let alg = Algorithm::ALL[(t * 4 + j) % Algorithm::ALL.len()];
            let start = NodeId(((t * 4 + j) * 97) as u32 % 2000);
            server
                .submit(
                    JobSpec::new(t, alg, start)
                        .with_walkers(2)
                        .with_max_steps(1500)
                        .with_seed((t * 4 + j) as u64 + 1),
                )
                .unwrap();
        }
    }
    server.run_to_completion();
    assert!(server.done());
    assert_eq!(server.remaining_budget(), Some(0), "budget must contend");

    let charged: Vec<u64> = (0..weights.len())
        .map(|t| server.tenant_stats(t).charged)
        .collect();
    let total: u64 = charged.iter().sum();
    let weight_total: f64 = weights.iter().sum();
    for (t, &w) in weights.iter().enumerate() {
        let share = charged[t] as f64 / total as f64;
        let target = w / weight_total;
        let rel = (share - target).abs() / target;
        assert!(
            rel <= 0.10,
            "tenant {t}: charged share {share:.3} vs weight share {target:.3} \
             (relative error {rel:.3})"
        );
        // Every tenant also rode the shared cache.
        assert!(server.tenant_stats(t).cache_hits > 0, "tenant {t}");
    }
}

#[test]
fn jobs_arriving_after_exhaustion_are_refused() {
    let endpoint = SimulatedBatchOsn::configured(
        SimulatedOsn::from_graph(test_graph(300)),
        BatchConfig::new(4),
        Some(25),
    );
    let mut server = SessionServer::new(endpoint, ServerConfig::new());
    let t0 = server.add_tenant("early", 1.0);
    let t1 = server.add_tenant("late", 1.0);
    let early = server
        .submit(
            JobSpec::new(t0, Algorithm::Cnrw, NodeId(0))
                .with_walkers(2)
                .with_max_steps(500)
                .with_seed(3),
        )
        .unwrap();
    // Arrives long after the early job has drained the budget.
    let late = server
        .submit(
            JobSpec::new(t1, Algorithm::Srw, NodeId(7))
                .with_seed(4)
                .with_arrival(1e6),
        )
        .unwrap();
    server.run_to_completion();
    assert_eq!(server.job_state(early), JobState::Done);
    assert_eq!(server.job_state(late), JobState::Refused);
    assert!(server.job_result(late).is_none());
    assert_eq!(server.tenant_stats(t1).jobs_refused, 1);
    assert_eq!(server.tenant_stats(t0).jobs_completed, 1);
    // The virtual clock jumped to the late arrival before refusing it.
    assert!(server.elapsed_secs() >= 1e6);
}

#[test]
fn submit_validates_tenant_and_start() {
    let endpoint = SimulatedBatchOsn::new(
        SimulatedOsn::from_graph(test_graph(50)),
        BatchConfig::new(4),
    );
    let mut server = SessionServer::new(endpoint, ServerConfig::new());
    let t = server.add_tenant("only", 1.0);
    assert!(server
        .submit(JobSpec::new(t + 1, Algorithm::Srw, NodeId(0)))
        .unwrap_err()
        .contains("tenant"));
    assert!(server
        .submit(JobSpec::new(t, Algorithm::Srw, NodeId(50)))
        .unwrap_err()
        .contains("outside"));
    // The field is public, so an arrival can bypass `with_arrival`'s clamp.
    for arrival in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let mut spec = JobSpec::new(t, Algorithm::Srw, NodeId(49));
        spec.arrival_secs = arrival;
        let err = server.submit(spec).unwrap_err();
        assert!(err.contains("arrival"), "arrival {arrival}: {err}");
    }
    assert!(server
        .submit(JobSpec::new(t, Algorithm::Srw, NodeId(49)))
        .is_ok());
}

#[test]
fn tenant_weights_must_be_finite_and_positive() {
    // A tenant of infinite weight would win every pick (its charged/weight
    // is always 0), so registration stores 1.0 for any weight that is not
    // finite and positive, and resume refuses one by tenant.
    let endpoint = SimulatedBatchOsn::new(
        SimulatedOsn::from_graph(test_graph(20)),
        BatchConfig::new(4),
    );
    let mut server = SessionServer::new(endpoint, ServerConfig::new());
    let kept = server.add_tenant("kept", 2.5);
    for weight in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -1.0] {
        let t = server.add_tenant("odd", weight);
        assert_eq!(server.tenants()[t].weight, 1.0, "weight {weight}");
    }
    assert_eq!(server.tenants()[kept].weight, 2.5);
    server
        .submit(JobSpec::new(kept, Algorithm::Cnrw, NodeId(3)))
        .unwrap();
    let snap = server.snapshot().unwrap();
    assert!(resume_small(&snap).is_ok());

    // Non-finite floats travel as strings in the text form.
    for weight in [
        Value::Num(-1.0),
        Value::Num(0.0),
        Value::Str("NaN".into()),
        Value::Str("inf".into()),
    ] {
        let mut tampered = snap.clone();
        *field_mut(entry_mut(&mut tampered, "tenants", kept), "weight") = weight.clone();
        let err = resume_small(&tampered)
            .err()
            .unwrap_or_else(|| panic!("weight {weight:?} resumed"));
        assert!(err.contains("tenant 0"), "weight {weight:?}: {err}");
    }
}

/// The endpoint used by the traffic and resume tests: every realism knob
/// on — rate limit, heterogeneous latency, whole-request failures, per-id
/// partial drops — plus a shared budget.
fn soak_endpoint(n: u32, budget: Option<u64>) -> SimulatedBatchOsn {
    let config = BatchConfig::new(6)
        .with_in_flight(3)
        .with_rate_limit(RateLimitConfig {
            calls_per_window: 50,
            window_secs: 1.0,
        })
        .with_latency(0.002, 0.001)
        .with_per_id_latency(0.0005)
        .with_failure_every(11)
        .with_drop_node_every(13)
        .with_seed(5);
    SimulatedBatchOsn::configured(SimulatedOsn::from_graph(test_graph(n)), config, budget)
}

fn soak_server(seed: u64) -> SessionServer {
    let mut server = SessionServer::new(
        soak_endpoint(400, Some(900)),
        ServerConfig::new().with_rounds_per_slice(6),
    );
    let traffic = TrafficConfig::new(6, 3)
        .with_seed(seed)
        .with_mean_interarrival(0.05)
        .with_max_steps(250)
        .with_max_walkers(3);
    populate(&mut server, &traffic);
    server
}

#[test]
fn generated_workloads_replay_bit_identically() {
    let run = |seed| {
        let mut server = soak_server(seed);
        server.run_to_completion();
        server.snapshot().unwrap().to_pretty()
    };
    assert_eq!(run(42), run(42), "same seed, same final server state");
    assert_ne!(run(42), run(43), "different seeds, different workloads");
}

#[test]
fn traffic_exercises_per_id_drops_and_retries() {
    let mut server = soak_server(7);
    server.run_to_completion();
    let snap = server.snapshot().unwrap();
    let bs = snap
        .field("endpoint")
        .unwrap()
        .field("batch_stats")
        .unwrap();
    let node_drops: u64 = bs.field("node_drops").unwrap().decode().unwrap();
    let retries: u64 = bs.field("retries").unwrap().decode().unwrap();
    assert!(node_drops > 0, "per-id partial failures never fired");
    assert!(retries > 0, "whole-request failure injection never fired");
}

fn traffic_server(budget: Option<u64>, seed: u64) -> SessionServer {
    let mut server = SessionServer::new(
        soak_endpoint(400, budget),
        ServerConfig::new().with_rounds_per_slice(6),
    );
    let traffic = TrafficConfig::new(5, 3)
        .with_seed(seed)
        .with_mean_interarrival(0.05)
        .with_max_steps(200)
        .with_max_walkers(3);
    populate(&mut server, &traffic);
    server
}

#[test]
fn reactor_jobs_match_serial_runs_of_their_specs_without_budget() {
    // Absent a budget, traces are schedule-independent: every job's
    // estimate and step count must equal a serial-core run built from its
    // spec, bit for bit, even though the server meters its slices in
    // reactor completion events over a faulty, rate-limited endpoint.
    let mut server = traffic_server(None, 11);
    server.run_to_completion();
    assert!(server.done());
    let network = server.network().clone();
    let mut completed = 0;
    for id in 0..server.job_count() {
        let Some(result) = server.job_result(id) else {
            continue;
        };
        let spec = server.job_spec(id).clone();
        let serial = WalkOrchestrator::new(spec.walkers, spec.max_steps, spec.seed).run_serial(
            &mut SimulatedOsn::new_shared(network.clone()),
            |_, _| spec.algorithm.make(spec.start),
            spec.estimand.value_fn(&network),
            &Never,
        );
        assert_eq!(
            result.estimate.map(f64::to_bits),
            spec.estimand.read(&serial.estimate).map(f64::to_bits),
            "job {id}"
        );
        assert_eq!(result.steps, serial.trace.total_steps(), "job {id}");
        completed += 1;
    }
    assert!(completed > 0, "no job completed");
}

#[test]
fn kill_mid_slice_resumes_bit_identically_under_budget() {
    // Full-realism endpoint (rate limit, failures, drops, shared budget):
    // kill after k slices, persist through text, resume, finish —
    // byte-identical to the uninterrupted run.
    let mut reference = traffic_server(Some(700), 21);
    reference.run_to_completion();
    let reference_final = reference.snapshot().unwrap().to_pretty();

    for k in [1usize, 7, 23] {
        let mut killed = traffic_server(Some(700), 21);
        for _ in 0..k {
            if !killed.step() {
                break;
            }
        }
        let snap = killed.snapshot().unwrap();
        let jobs = snap.field("jobs").unwrap().as_array().unwrap();
        // Mid-run jobs carry reactor-kind run snapshots.
        let reactor_runs = jobs
            .iter()
            .filter_map(|jv| jv.field("run").ok())
            .filter(|rv| rv.field("kind").unwrap().as_str().unwrap() == "reactor")
            .count();
        if k > 1 {
            assert!(reactor_runs > 0, "k={k}: no mid-walk reactor run captured");
        }
        let text = snap.to_pretty();
        drop(killed);

        let parsed = Value::parse(&text).unwrap();
        let mut resumed = SessionServer::resume(
            soak_endpoint(400, Some(700)),
            ServerConfig::new().with_rounds_per_slice(6),
            &parsed,
        )
        .unwrap();
        resumed.run_to_completion();
        assert_eq!(
            resumed.snapshot().unwrap().to_pretty(),
            reference_final,
            "k={k}"
        );
    }
}

/// What the scheduling rule picks for the next slice, computed from public
/// state alone: admit every queued job that has arrived (refused once the
/// budget is spent), take the tenant with a running job and the lowest
/// charged/weight (`total_cmp`, lower index on ties), then that tenant's
/// running job at `cursor % len` in id order. Returns every job's state
/// after admission and the picked `(tenant, job)`, if any.
fn reference_pick(
    server: &SessionServer,
    cursors: &[u64],
) -> (Vec<JobState>, Option<(usize, usize)>) {
    let now = server.elapsed_secs();
    let exhausted = server.remaining_budget() == Some(0);
    let states: Vec<JobState> = (0..server.job_count())
        .map(|id| match server.job_state(id) {
            JobState::Queued if server.job_spec(id).arrival_secs <= now => {
                if exhausted {
                    JobState::Refused
                } else {
                    JobState::Running
                }
            }
            state => state,
        })
        .collect();
    let running = |t: usize| -> Vec<usize> {
        (0..states.len())
            .filter(|&id| states[id] == JobState::Running && server.job_spec(id).tenant == t)
            .collect()
    };
    let share = |t: usize| server.tenant_stats(t).charged as f64 / server.tenants()[t].weight;
    let pick = (0..server.tenants().len())
        .filter(|&t| !running(t).is_empty())
        .min_by(|&a, &b| share(a).total_cmp(&share(b)))
        .map(|t| {
            let jobs = running(t);
            (t, jobs[(cursors[t] % jobs.len() as u64) as usize])
        });
    (states, pick)
}

fn cursors_of(snapshot: &Value) -> Vec<u64> {
    let cursors = snapshot.field("cursors").unwrap().as_array().unwrap();
    cursors.iter().map(|c| c.decode().unwrap()).collect()
}

fn run_of(snapshot: &Value, id: usize) -> Option<&Value> {
    snapshot.field("jobs").unwrap().as_array().unwrap()[id]
        .field("run")
        .ok()
}

#[test]
fn indexed_scheduler_picks_what_the_reference_rule_picks() {
    // Staggered arrivals, five jobs per tenant (one submitted out of
    // arrival order), a budget that runs out while jobs are still arriving,
    // and a kill and resume partway: before every slice the reference rule
    // names a tenant and a job, and the slice must advance exactly that
    // tenant's cursor and that job's run.
    let budget = Some(120);
    let config = ServerConfig::new().with_rounds_per_slice(2);
    let mut server = SessionServer::new(soak_endpoint(400, budget), config);
    let traffic = TrafficConfig::new(7, 4)
        .with_seed(5)
        .with_mean_interarrival(1.0)
        .with_max_steps(120)
        .with_max_walkers(2);
    for t in populate(&mut server, &traffic) {
        // Arrives before most of the tenant's earlier-submitted jobs, so
        // admission order differs from id order.
        let spec = JobSpec::new(t, Algorithm::ALL[t], NodeId(50 * t as u32))
            .with_max_steps(80)
            .with_seed(t as u64)
            .with_arrival(0.3 + 0.2 * t as f64);
        server.submit(spec).unwrap();
    }
    let settled = |server: &SessionServer, state| {
        (0..server.job_count())
            .filter(|&id| server.job_state(id) == state)
            .count()
    };
    let events = |run: Option<&Value>| -> u64 {
        run.map_or(0, |r| r.field("events").unwrap().decode().unwrap())
    };
    let (mut slices, mut picks, mut shared_picks) = (0usize, 0usize, 0usize);
    let kill_at = 90;
    loop {
        if slices == kill_at {
            // Resume rebuilds the index from a mix of job states.
            for state in [JobState::Queued, JobState::Running, JobState::Done] {
                assert!(settled(&server, state) > 0, "no {} job", state.label());
            }
            let text = server.snapshot().unwrap().to_pretty();
            let parsed = Value::parse(&text).unwrap();
            server = SessionServer::resume(soak_endpoint(400, budget), config, &parsed).unwrap();
        }
        let before = server.snapshot().unwrap();
        let cursors = cursors_of(&before);
        let (states, pick) = reference_pick(&server, &cursors);
        let more = server.step();
        slices += 1;
        let after = server.snapshot().unwrap();

        let mut expected = cursors;
        if let Some((t, _)) = pick {
            expected[t] += 1;
            picks += 1;
        } else {
            // Idle: the clock jumps to the next arrival, if any is left.
            let next = (0..states.len())
                .filter(|&id| states[id] == JobState::Queued)
                .map(|id| server.job_spec(id).arrival_secs)
                .min_by(f64::total_cmp);
            assert_eq!(more, next.is_some(), "slice {slices}");
            if let Some(next) = next {
                assert_eq!(server.elapsed_secs(), next, "slice {slices}: clock");
            }
        }
        assert_eq!(cursors_of(&after), expected, "slice {slices}: cursors");
        for (id, &state) in states.iter().enumerate() {
            let (was, now) = (run_of(&before, id), run_of(&after, id));
            if let Some((t, _)) = pick.filter(|&(_, job)| job == id) {
                if now.is_none() {
                    assert_eq!(server.job_state(id), JobState::Done, "slice {slices}");
                } else {
                    assert!(events(now) > events(was), "slice {slices}: job {id} idle");
                }
                let runners = (0..states.len())
                    .filter(|&j| states[j] == JobState::Running && server.job_spec(j).tenant == t)
                    .count();
                shared_picks += usize::from(runners > 1);
                continue;
            }
            assert_eq!(server.job_state(id), state, "slice {slices}: job {id}");
            if was.is_none() && now.is_some() {
                // Admitted this slice but not picked: a fresh run.
                assert_eq!(events(now), 0, "slice {slices}: job {id} ran unpicked");
            } else {
                assert_eq!(was, now, "slice {slices}: job {id} ran unpicked");
            }
        }
        if !more {
            break;
        }
    }
    assert!(server.done());
    assert!(slices > kill_at, "the run ended before the kill point");
    assert!(
        settled(&server, JobState::Refused) > 0,
        "no late arrival refused"
    );
    assert!(shared_picks > 0, "no tenant ever ran two jobs at once");
    assert!(picks < slices - 1, "the clock never jumped to an arrival");
}

/// The field `key` of object `v`, mutably — for tampering with snapshots.
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

/// Entry `i` of the array field `key` of a server snapshot, mutably.
fn entry_mut<'a>(snapshot: &'a mut Value, key: &str, i: usize) -> &'a mut Value {
    match field_mut(snapshot, key) {
        Value::Arr(items) => &mut items[i],
        other => panic!("expected an array, got {}", other.type_name()),
    }
}

fn resume_small(snapshot: &Value) -> Result<SessionServer, String> {
    let endpoint = SimulatedBatchOsn::new(
        SimulatedOsn::from_graph(test_graph(20)),
        BatchConfig::new(4),
    );
    SessionServer::resume(endpoint, ServerConfig::new(), snapshot)
}

#[test]
fn resume_refuses_a_start_node_outside_the_graph() {
    // `submit` refuses a start outside the snapshot; a tampered snapshot
    // must not smuggle one past `resume` (it used to resume fine and
    // panic on the first neighbor fetch once the job was admitted).
    let endpoint = SimulatedBatchOsn::new(
        SimulatedOsn::from_graph(test_graph(20)),
        BatchConfig::new(4),
    );
    let mut server = SessionServer::new(endpoint, ServerConfig::new());
    let t = server.add_tenant("only", 1.0);
    server
        .submit(JobSpec::new(t, Algorithm::Cnrw, NodeId(3)).with_arrival(5.0))
        .unwrap();
    let mut snap = server.snapshot().unwrap();
    assert!(resume_small(&snap).is_ok());

    *field_mut(field_mut(entry_mut(&mut snap, "jobs", 0), "spec"), "start") =
        Value::Uint(4_000_000);
    let err = resume_small(&snap)
        .err()
        .expect("out-of-range start resumed");
    assert!(err.contains("outside"), "unexpected error: {err}");

    // Same gate as submit: an unknown tenant is refused too.
    *field_mut(field_mut(entry_mut(&mut snap, "jobs", 0), "spec"), "start") = Value::Uint(3);
    *field_mut(field_mut(entry_mut(&mut snap, "jobs", 0), "spec"), "tenant") = Value::Uint(9);
    let err = resume_small(&snap).err().expect("unknown tenant resumed");
    assert!(err.contains("tenant"), "unexpected error: {err}");

    // And so is an arrival time that is negative or not finite.
    *field_mut(field_mut(entry_mut(&mut snap, "jobs", 0), "spec"), "tenant") = Value::Uint(0);
    for arrival in ["NaN", "inf", "-inf"]
        .map(|s| Value::Str(s.into()))
        .into_iter()
        .chain([Value::Num(-1.0)])
    {
        *field_mut(
            field_mut(entry_mut(&mut snap, "jobs", 0), "spec"),
            "arrival_secs",
        ) = arrival.clone();
        let err = resume_small(&snap)
            .err()
            .unwrap_or_else(|| panic!("arrival {arrival:?} resumed"));
        assert!(err.contains("arrival"), "arrival {arrival:?}: {err}");
    }
}

#[test]
fn resume_refuses_run_snapshots_of_other_kinds() {
    // Every running job is a reactor run. A snapshot naming any other run
    // kind — a lockstep `coalesced` run from before the engines were
    // folded, or anything unknown — is refused, and the error names it.
    let endpoint = SimulatedBatchOsn::new(
        SimulatedOsn::from_graph(test_graph(20)),
        BatchConfig::new(4),
    );
    let mut server = SessionServer::new(endpoint, ServerConfig::new().with_rounds_per_slice(1));
    let t = server.add_tenant("only", 1.0);
    server
        .submit(
            JobSpec::new(t, Algorithm::Cnrw, NodeId(3))
                .with_walkers(3)
                .with_max_steps(100),
        )
        .unwrap();
    assert!(server.step());
    let snap = server.snapshot().unwrap();
    assert_eq!(server.job_state(0), JobState::Running);
    assert!(resume_small(&snap).is_ok());

    for kind in ["coalesced", "serial", "warp-drive"] {
        let mut tampered = snap.clone();
        *field_mut(
            field_mut(entry_mut(&mut tampered, "jobs", 0), "run"),
            "kind",
        ) = Value::Str(kind.into());
        let err = resume_small(&tampered)
            .err()
            .unwrap_or_else(|| panic!("run kind `{kind}` resumed"));
        assert!(err.contains(kind), "error does not name `{kind}`: {err}");
    }
}

#[test]
fn running_jobs_snapshot_delivered_ids_not_neighbor_lists() {
    // A running job's run snapshot names the nodes its walkers were
    // delivered — a sorted id list, like `seen` — and carries no neighbor
    // lists: the resumed run reads them back from the endpoint. A snapshot
    // in the old format, with a `cache` of lists in place of `delivered`,
    // is refused, and the error names the missing field.
    let endpoint = SimulatedBatchOsn::new(
        SimulatedOsn::from_graph(test_graph(20)),
        BatchConfig::new(4),
    );
    let mut server = SessionServer::new(endpoint, ServerConfig::new().with_rounds_per_slice(1));
    let t = server.add_tenant("only", 1.0);
    server
        .submit(
            JobSpec::new(t, Algorithm::Cnrw, NodeId(3))
                .with_walkers(3)
                .with_max_steps(100),
        )
        .unwrap();
    for _ in 0..4 {
        assert!(server.step());
    }
    assert_eq!(server.job_state(0), JobState::Running);
    let snap = server.snapshot().unwrap();
    let dispatch = run_of(&snap, 0).unwrap().field("dispatch").unwrap();
    let delivered: Vec<u32> = dispatch.field("delivered").unwrap().decode().unwrap();
    assert!(!delivered.is_empty(), "a running job was delivered nothing");
    assert!(
        delivered.windows(2).all(|w| w[0] < w[1]),
        "`delivered` is not a sorted id list: {delivered:?}"
    );
    assert!(dispatch.field("cache").is_err());
    // Ids are held in flat lists; a list of neighbor lists would nest one
    // array inside another.
    fn array_depth(v: &Value) -> usize {
        match v {
            Value::Arr(items) => 1 + items.iter().map(array_depth).max().unwrap_or(0),
            Value::Obj(fields) => fields
                .iter()
                .map(|(_, f)| array_depth(f))
                .max()
                .unwrap_or(0),
            _ => 0,
        }
    }
    assert_eq!(
        array_depth(dispatch),
        1,
        "dispatch nests lists: {dispatch:?}"
    );
    assert!(resume_small(&snap).is_ok());

    let mut old = snap.clone();
    let Value::Obj(fields) =
        field_mut(field_mut(entry_mut(&mut old, "jobs", 0), "run"), "dispatch")
    else {
        panic!("dispatch is not an object");
    };
    let slot = fields.iter_mut().find(|(k, _)| k == "delivered").unwrap();
    *slot = (
        "cache".into(),
        Value::Arr(
            delivered
                .iter()
                .map(|&u| {
                    Value::obj([
                        ("node", Value::Uint(u64::from(u))),
                        ("neighbors", Value::Arr(vec![Value::Uint(0)])),
                    ])
                })
                .collect(),
        ),
    );
    let err = resume_small(&old)
        .err()
        .expect("an old-format run snapshot resumed");
    assert!(
        err.starts_with("job 0: "),
        "error does not name the job: {err}"
    );
    assert!(
        err.contains("delivered"),
        "error does not name `delivered`: {err}"
    );
}

#[test]
fn running_jobs_snapshot_walker_history_without_a_backend_tag() {
    // A walker's `history` is the circulation engine's state itself, and
    // neither the job spec nor the run spec names a history backend. A
    // snapshot in the old format, whose walkers wrap their history as
    // `{"backend": …, "engine": …}`, is refused with an error that names
    // the job and the first engine field it lacks.
    let endpoint = SimulatedBatchOsn::new(
        SimulatedOsn::from_graph(test_graph(20)),
        BatchConfig::new(4),
    );
    let mut server = SessionServer::new(endpoint, ServerConfig::new().with_rounds_per_slice(1));
    let t = server.add_tenant("only", 1.0);
    server
        .submit(
            JobSpec::new(t, Algorithm::GnrwByDegree, NodeId(3))
                .with_walkers(3)
                .with_max_steps(100),
        )
        .unwrap();
    for _ in 0..4 {
        assert!(server.step());
    }
    assert_eq!(server.job_state(0), JobState::Running);
    let snap = server.snapshot().unwrap();
    let job = &snap.field("jobs").unwrap().as_array().unwrap()[0];
    assert!(job.field("spec").unwrap().field("backend").is_err());
    let run = run_of(&snap, 0).unwrap();
    assert!(run.field("spec").unwrap().field("backend").is_err());
    for walker in run.field("walkers").unwrap().as_array().unwrap() {
        let history = walker.field("history").unwrap();
        assert!(history.field("backend").is_err(), "{history:?}");
        assert!(history.field("items").is_ok(), "{history:?}");
    }
    assert!(resume_small(&snap).is_ok());

    let mut old = snap.clone();
    let walkers = field_mut(field_mut(entry_mut(&mut old, "jobs", 0), "run"), "walkers");
    let Value::Arr(walkers) = walkers else {
        panic!("walkers is not an array");
    };
    for walker in walkers {
        let history = field_mut(walker, "history");
        let engine = std::mem::replace(history, Value::Null);
        *history = Value::obj([("backend", Value::Str("arena".into())), ("engine", engine)]);
    }
    let err = resume_small(&old)
        .err()
        .expect("an old-format walker history resumed");
    assert!(
        err.starts_with("job 0: "),
        "error does not name the job: {err}"
    );
    assert!(err.contains("items"), "error does not name `items`: {err}");
}

#[test]
fn real_snapshots_round_trip_well_inside_the_parser_depth_cap() {
    // The parser refuses nesting past `osn_serde::MAX_DEPTH`; a live
    // server snapshot — tenants, jobs, mid-walk reactor runs — must parse
    // back unchanged with ample headroom.
    fn depth(v: &Value) -> usize {
        match v {
            Value::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Value::Obj(fields) => 1 + fields.iter().map(|(_, f)| depth(f)).max().unwrap_or(0),
            _ => 0,
        }
    }
    let mut server = soak_server(3);
    for _ in 0..12 {
        server.step();
    }
    let snap = server.snapshot().unwrap();
    assert!(
        depth(&snap) * 4 <= osn_serde::MAX_DEPTH,
        "depth {}",
        depth(&snap)
    );
    for text in [snap.to_pretty(), snap.to_compact()] {
        assert_eq!(Value::parse(&text).unwrap(), snap);
    }
}

/// Seeded mutation batches for the overlay arm, keyed to the scheduling
/// slice they fire after. Deletes that would drop a node to degree zero
/// are filtered so no mid-walk job is ever stranded.
fn mutation_batches(n: u32, seed: u64) -> Vec<(usize, Vec<EdgeMutation>)> {
    let g = test_graph(n);
    let spec = ScheduleSpec::new(30, 2.0, seed).with_delete_fraction(0.4);
    let schedule = MutationSchedule::generate(&g, &spec);
    let mut overlay = DeltaOverlay::new();
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for &m in schedule.events() {
        if m.op == MutationOp::Delete
            && (overlay.degree(&g, m.u) <= 1 || overlay.degree(&g, m.v) <= 1)
        {
            continue;
        }
        if overlay.apply(&g, m) {
            if m.at <= 1.0 {
                first.push(m);
            } else {
                second.push(m);
            }
        }
    }
    vec![(3, first), (9, second)]
}

/// Drive up to `max` scheduling slices, applying each batch due at the
/// global slice index it is keyed to. Returns the slice counter and
/// whether the server still has work.
fn drive(
    server: &mut SessionServer,
    batches: &[(usize, Vec<EdgeMutation>)],
    start: usize,
    max: usize,
) -> (usize, bool) {
    let mut slice = start;
    while slice - start < max {
        let more = server.step();
        slice += 1;
        for (at, batch) in batches {
            if *at == slice {
                server.apply_mutations(batch);
            }
        }
        if !more {
            return (slice, false);
        }
    }
    (slice, true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The overlay arm of kill/resume: the graph mutates under the server
    /// at fixed slice boundaries (`SessionServer::apply_mutations` — the
    /// endpoint's delta overlay plus invalidation of every live job's
    /// walkers). Kill at an arbitrary slice — before, between, or after
    /// the mutation batches — persist through text, resume over a
    /// pristine endpoint (the mutation log rides the endpoint snapshot),
    /// replay the schedule's remainder, and the final server state must
    /// be byte-identical to the uninterrupted mutating run's.
    #[test]
    fn kill_mid_mutation_schedule_resumes_bit_identically(
        k in 0usize..60,
        seed in 0u64..30,
    ) {
        let batches = mutation_batches(400, seed ^ 0xE7);
        let mut reference = soak_server(seed);
        drive(&mut reference, &batches, 0, usize::MAX);
        let reference_final = reference.snapshot().unwrap().to_pretty();

        let mut killed = soak_server(seed);
        let (s, more) = drive(&mut killed, &batches, 0, k);
        let text = killed.snapshot().unwrap().to_pretty();
        drop(killed);

        let parsed = Value::parse(&text).map_err(|e| e.to_string())?;
        let mut resumed = SessionServer::resume(
            soak_endpoint(400, Some(900)),
            ServerConfig::new().with_rounds_per_slice(6),
            &parsed,
        )
        .map_err(|e| format!("resume failed: {e}"))?;
        if more {
            drive(&mut resumed, &batches, s, usize::MAX);
        }
        prop_assert_eq!(resumed.snapshot().unwrap().to_pretty(), reference_final);
    }

    /// Kill the server after `k` scheduling slices, persist the snapshot
    /// through the text form, resume into a freshly constructed endpoint,
    /// and finish: the final server state — every job's estimate, every
    /// tenant's accounting, the endpoint's clock and cache — must be
    /// byte-identical to the uninterrupted run's.
    #[test]
    fn kill_at_slice_k_resumes_bit_identically(k in 0usize..80, seed in 0u64..40) {
        let mut reference = soak_server(seed);
        reference.run_to_completion();
        let reference_final = reference.snapshot().unwrap().to_pretty();

        let mut killed = soak_server(seed);
        for _ in 0..k {
            if !killed.step() {
                break;
            }
        }
        let text = killed.snapshot().unwrap().to_pretty();
        drop(killed);

        let parsed = Value::parse(&text).map_err(|e| e.to_string())?;
        let mut resumed = SessionServer::resume(
            soak_endpoint(400, Some(900)),
            ServerConfig::new().with_rounds_per_slice(6),
            &parsed,
        )
        .map_err(|e| format!("resume failed: {e}"))?;
        resumed.run_to_completion();
        prop_assert_eq!(resumed.snapshot().unwrap().to_pretty(), reference_final);

        // Estimates are bit-identical, job by job.
        for id in 0..reference.job_count() {
            prop_assert_eq!(reference.job_state(id), resumed.job_state(id));
            let a = reference.job_result(id).map(|r| (r.estimate.map(f64::to_bits), r.steps, r.rounds));
            let b = resumed.job_result(id).map(|r| (r.estimate.map(f64::to_bits), r.steps, r.rounds));
            prop_assert_eq!(a, b, "job {}", id);
        }
        for t in 0..reference.tenants().len() {
            prop_assert_eq!(reference.tenant_stats(t), resumed.tenant_stats(t));
        }
    }
}
