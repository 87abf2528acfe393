//! Storage-layer equivalence: the per-server records, the residency index
//! and every memo must be observationally identical to the old full-scan
//! storage.
//!
//! The cluster keeps a `#[doc(hidden)]` reference mode
//! ([`Cluster::set_reference_scan`], compiled in by the crate's
//! `reference` feature, which this crate's tests enable) that walks the
//! whole arena in ascending-id order with every memo disabled — the exact
//! behaviour of the original `BTreeMap` storage. These tests drive an
//! indexed cluster and a reference cluster through the same random
//! churn (launches, terminations, migrations, profile swaps, pressure
//! overrides, degradation, isolation changes, and compiled chaos plans)
//! and require every observable — interference, per-core interference,
//! cache-sweep response, utilization at two instants, performance, the
//! trace, and the state of the shared RNG stream — to match bit for bit.
//!
//! A separate regression pins the locality contract: a probe's
//! neighbor-visit count depends only on its own host's population, never
//! on the rest of the region.

use std::collections::BTreeSet;

use bolt_sim::vm::VmRole;
use bolt_sim::{
    ChaosConfig, Cluster, FaultPlan, IsolationConfig, Mechanisms, ServerSpec, SweepMemo, VmId,
};
use bolt_workloads::{catalog, DatasetScale, LoadPattern, PressureVector, WorkloadProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SERVERS: usize = 4;

/// A catalog profile for op slot `i`: half the families keep their
/// stochastic noise (exercising the uncached path), half are zeroed
/// (exercising the aggregate cache). Of the zeroed pair, SPEC runs at
/// steady load, so it is time-invariant and its server's monitor
/// utilization may be memoized, while memcached keeps its diurnal load:
/// deterministic, but different at every instant, so never memoized.
fn profile(i: usize, rng: &mut StdRng) -> WorkloadProfile {
    match i % 4 {
        0 => catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng),
        1 => catalog::speccpu::profile(&catalog::speccpu::Benchmark::Gobmk, rng).with_noise(0.0),
        2 => catalog::spark::profile(&catalog::spark::Algorithm::KMeans, DatasetScale::Small, rng),
        _ => catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng)
            .with_noise(0.0),
    }
}

/// Applies one op schedule to `cluster` with its own RNG stream, and
/// returns the servers its writes named, whether or not they succeeded.
fn apply_ops(cluster: &mut Cluster, ops: &[(u8, usize)], seed: u64) -> BTreeSet<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<VmId> = cluster.vm_ids().collect();
    let mut written = BTreeSet::new();
    let server_of = |cluster: &Cluster, id: VmId| cluster.vm(id).expect("vm is live").server;
    for (i, &(op, pick)) in ops.iter().enumerate() {
        match op {
            0..=2 => {
                let p = profile(i, &mut rng);
                if let Some(s) = cluster.least_loaded_server(p.vcpus()) {
                    let id = cluster
                        .launch_on(s, p, VmRole::Friendly, i as f64)
                        .expect("server reported capacity");
                    live.push(id);
                    written.insert(s);
                }
            }
            3 => {
                if !live.is_empty() {
                    let id = live.remove(pick % live.len());
                    written.insert(server_of(cluster, id));
                    cluster.terminate(id).expect("vm is live");
                }
            }
            4 => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    let state = cluster.vm(id).expect("vm is live");
                    let (from, vcpus) = (state.server, state.vcpus());
                    if let Some(to) = cluster.least_loaded_server(vcpus).filter(|&s| s != from) {
                        cluster.migrate(id, to).expect("target has room");
                        written.extend([from, to]);
                    }
                }
            }
            5 => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    written.insert(server_of(cluster, id));
                    let _ = cluster.swap_profile(id, profile(i + 1, &mut rng));
                }
            }
            6 => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    let o = if pick % 2 == 0 {
                        Some(PressureVector::from_raw(
                            [(pick % 90) as f64; bolt_workloads::RESOURCE_COUNT],
                        ))
                    } else {
                        None
                    };
                    written.insert(server_of(cluster, id));
                    cluster.set_pressure_override(id, o).expect("vm is live");
                }
            }
            _ => {
                let factor = (pick % 10) as f64 / 20.0;
                cluster
                    .set_degradation(pick % SERVERS, factor, i as f64)
                    .expect("server index in range");
                written.insert(pick % SERVERS);
            }
        }
    }
    written
}

/// Every observable of `a` and `b` at time `t`, compared bit for bit.
/// One shared query-RNG seed per cluster: if either storage skipped or
/// reordered a single draw, the streams diverge and the compare fails.
fn assert_observables_match(a: &Cluster, b: &Cluster, t: f64, seed: u64) {
    let ids_a: Vec<VmId> = a.vm_ids().collect();
    let ids_b: Vec<VmId> = b.vm_ids().collect();
    assert_eq!(ids_a, ids_b, "live VM sets diverged");

    let mut rng_a = StdRng::seed_from_u64(seed);
    let mut rng_b = StdRng::seed_from_u64(seed);
    for &id in &ids_a {
        let ia = a.interference_on(id, t, &mut rng_a).expect("vm is live");
        let ib = b.interference_on(id, t, &mut rng_b).expect("vm is live");
        assert_eq!(ia, ib, "interference diverged for {id:?} at t={t}");
        let sa = a
            .cache_sweep_response(id, 0.5, t, &mut rng_a)
            .expect("vm is live");
        let sb = b
            .cache_sweep_response(id, 0.5, t, &mut rng_b)
            .expect("vm is live");
        assert_eq!(sa.to_bits(), sb.to_bits(), "sweep diverged for {id:?}");
        let pa = a.performance_of(id, t, &mut rng_a).expect("vm is live");
        let pb = b.performance_of(id, t, &mut rng_b).expect("vm is live");
        assert_eq!(
            (pa.0.to_bits(), pa.1.to_bits()),
            (pb.0.to_bits(), pb.1.to_bits()),
            "performance diverged"
        );
        let ca = a
            .interference_on_core(id, 0, t, &mut rng_a)
            .expect("core 0");
        let cb = b
            .interference_on_core(id, 0, t, &mut rng_b)
            .expect("core 0");
        assert_eq!(ca, cb, "per-core interference diverged for {id:?}");
    }
    // The monitor reads each server once per check, at a new instant each
    // time; a quarter day apart, a diurnal tenant's load has moved.
    for at in [t, t + 21_600.0] {
        for server in 0..SERVERS {
            let ua = a.cpu_utilization(server, at, &mut rng_a).expect("in range");
            let ub = b.cpu_utilization(server, at, &mut rng_b).expect("in range");
            assert_eq!(
                ua.to_bits(),
                ub.to_bits(),
                "utilization diverged on server {server} at t={at}"
            );
        }
    }
    for server in 0..SERVERS {
        assert_eq!(a.vms_on(server), b.vms_on(server), "residency diverged");
    }
    // The streams themselves must be in the same state afterwards.
    assert_eq!(
        rng_a.gen::<u64>(),
        rng_b.gen::<u64>(),
        "query RNG streams diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The indexed storage and the reference full scan agree on every
    /// observable after any churn schedule.
    #[test]
    fn indexed_storage_matches_reference_scan(
        seed in 0u64..500,
        ops in proptest::collection::vec((0u8..8, 0usize..64), 1..40),
        t in 0.0f64..500.0,
    ) {
        let isolation = IsolationConfig::cloud_default();
        let mut indexed = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        let mut reference = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        reference.set_reference_scan(true);

        apply_ops(&mut indexed, &ops, seed);
        apply_ops(&mut reference, &ops, seed);
        prop_assert_eq!(indexed.events(), reference.events(), "traces diverged");

        assert_observables_match(&indexed, &reference, t, seed ^ 0xC0FFEE);
        // Query twice: the second pass hits the aggregate cache on the
        // indexed cluster and must still match the reference rescans.
        assert_observables_match(&indexed, &reference, t, seed ^ 0xC0FFEE);
    }

    /// Chaos plans (the churn engine behind the robustness suite) apply
    /// identically to both storages.
    #[test]
    fn chaos_churn_is_storage_agnostic(
        seed in 0u64..200,
        intensity in 0.1f64..1.0,
    ) {
        let isolation = IsolationConfig::cloud_default();
        let mut indexed = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        let mut reference = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        reference.set_reference_scan(true);

        let ops: Vec<(u8, usize)> = (0..12).map(|i| (0u8, i)).collect();
        apply_ops(&mut indexed, &ops, seed);
        apply_ops(&mut reference, &ops, seed);

        let config = ChaosConfig::with_intensity(intensity);
        let mut plan_a = FaultPlan::compile(&config, seed, 0, 0.0, 300.0);
        let mut plan_b = FaultPlan::compile(&config, seed, 0, 0.0, 300.0);
        for step in 1..=5 {
            let t = step as f64 * 60.0;
            let na = plan_a.apply_due(&mut indexed, t).expect("plan applies");
            let nb = plan_b.apply_due(&mut reference, t).expect("plan applies");
            prop_assert_eq!(na, nb, "fault application diverged");
            assert_observables_match(&indexed, &reference, t, seed ^ 0xBEEF);
        }
        prop_assert_eq!(indexed.events(), reference.events(), "traces diverged");
    }
}

/// A region-style host set: an adversary with a pressure override on every
/// server, next to steady zero-noise tenants (the service's region
/// tenants), plus one zero-noise diurnal tenant on the first
/// `diurnal_servers` servers. Every all-steady server is time-invariant,
/// so the monitor memo engages there.
fn region_cluster(seed: u64, diurnal_servers: usize) -> Cluster {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Cluster::new(
        SERVERS,
        ServerSpec::xeon(),
        IsolationConfig::cloud_default(),
    )
    .expect("cluster");
    for server in 0..SERVERS {
        let adversary = c
            .launch_on(
                server,
                profile(0, &mut rng).with_vcpus(2),
                VmRole::Adversarial,
                0.0,
            )
            .expect("fits");
        c.set_pressure_override(adversary, Some(PressureVector::zero()))
            .expect("vm is live");
        for k in 0..3 {
            let steady = profile(1, &mut rng).with_noise(0.0).with_vcpus(2);
            let tenant = if k == 0 && server < diurnal_servers {
                steady.with_load(LoadPattern::Diurnal {
                    low: 0.2,
                    high: 0.9,
                    phase: 0.3,
                })
            } else {
                steady.with_load(LoadPattern::steady())
            };
            c.launch_on(server, tenant, VmRole::Friendly, 0.0)
                .expect("fits");
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Churned hunts over one region-style base, as in the service: every
    /// hunt runs a chaos plan on its own snapshot, so migration checks
    /// read records whose monitor memos the base or an earlier hunt
    /// filled, while arrivals and swaps add noisy tenants and
    /// degradations and migrations rewrite records. Each hunt matches a
    /// reference-scan twin at every check, including after switching
    /// its isolation config halfway, and so do the fault counts and the
    /// traces the plans' RNG streams drive.
    #[test]
    fn region_churn_monitor_matches_reference(
        seed in 0u64..200,
        intensity in 0.2f64..1.0,
        diurnal_servers in 0usize..3,
    ) {
        let base = region_cluster(seed, diurnal_servers);
        let mut reference_base = region_cluster(seed, diurnal_servers);
        reference_base.set_reference_scan(true);
        // The base fills the shared memos every hunt then starts from.
        assert_observables_match(&base, &reference_base, 1.0, seed ^ 0xBA5E);

        // Pinning closes the scheduler-float channel the monitor's CPU
        // contention reads, so a memo filled under the old config is wrong
        // under this one.
        let pinned = IsolationConfig {
            mechanisms: Mechanisms {
                thread_pinning: true,
                cache_partitioning: true,
                ..Mechanisms::none()
            },
            ..IsolationConfig::cloud_default()
        };
        let config = ChaosConfig::with_intensity(intensity);
        for hunt in 0..3u64 {
            let mut a = base.snapshot();
            let mut b = reference_base.snapshot();
            let mut plan_a = FaultPlan::compile(&config, seed, hunt, 0.0, 300.0);
            let mut plan_b = FaultPlan::compile(&config, seed, hunt, 0.0, 300.0);
            let protected = a.vms_on(0).to_vec();
            plan_a.protect(&protected);
            plan_b.protect(&protected);
            for step in 1..=5 {
                if step == 3 {
                    a.set_isolation(pinned);
                    b.set_isolation(pinned);
                }
                let t = step as f64 * 60.0;
                let na = plan_a.apply_due(&mut a, t).expect("plan applies");
                let nb = plan_b.apply_due(&mut b, t).expect("plan applies");
                prop_assert_eq!(na, nb, "fault application diverged");
                assert_observables_match(&a, &b, t, seed ^ hunt ^ 0xBEEF);
            }
            prop_assert_eq!(a.events(), b.events(), "traces diverged");
            prop_assert!(a.storage_stats().placement_copies <= 1);
        }
        // The hunts' writes never reached the base.
        assert_observables_match(&base, &reference_base, 400.0, seed ^ 0x4EAD);
    }
}

/// Locality regression: probing a tenant visits only its own host's
/// co-residents — packing the *other* servers must not change the visit
/// count. Under the old full-arena scan, `visits(b)` grew with every
/// extra tenant anywhere in the region.
#[test]
fn neighbor_visits_ignore_other_servers() {
    let build = |other_servers_tenants: usize| -> (Cluster, VmId) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut c = Cluster::new(
            SERVERS,
            ServerSpec::xeon(),
            IsolationConfig::cloud_default(),
        )
        .expect("cluster");
        let observer = c
            .launch_on(0, profile(1, &mut rng), VmRole::Adversarial, 0.0)
            .expect("fits");
        for k in 0..3 {
            c.launch_on(0, profile(k, &mut rng), VmRole::Friendly, 0.0)
                .expect("fits");
        }
        for server in 1..SERVERS {
            for k in 0..other_servers_tenants {
                // One-vCPU tenants so eight of them pack onto each host.
                c.launch_on(
                    server,
                    profile(k, &mut rng).with_vcpus(1),
                    VmRole::Friendly,
                    0.0,
                )
                .expect("fits");
            }
        }
        (c, observer)
    };

    let visits = |tenants_elsewhere: usize| -> u64 {
        let (c, observer) = build(tenants_elsewhere);
        let mut rng = StdRng::seed_from_u64(1);
        let before = c.storage_stats().neighbor_visits;
        c.interference_on(observer, 42.0, &mut rng)
            .expect("probe runs");
        c.storage_stats().neighbor_visits - before
    };

    let sparse = visits(0);
    let packed = visits(8);
    assert!(sparse > 0, "the probe visited its own co-residents");
    assert_eq!(
        sparse, packed,
        "a probe's visit count must not depend on other servers' tenants"
    );
}

/// Snapshots start with an empty trace and leave the original's trace
/// alone — pinned here because detection snapshots cross threads and an
/// O(history) copy (or a shared buffer) would be a scaling regression.
#[test]
fn snapshot_takes_empty_event_buffer() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut c =
        Cluster::new(2, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
    let vm = c
        .launch_on(0, profile(0, &mut rng), VmRole::Friendly, 0.0)
        .expect("fits");
    c.migrate(vm, 1).expect("room on server 1");

    let snap = c.snapshot();
    assert!(
        snap.events().is_empty(),
        "snapshot must not copy the event log"
    );
    assert_eq!(c.events().len(), 2, "original trace untouched");
    assert_eq!(
        snap.vm_ids().collect::<Vec<_>>(),
        c.vm_ids().collect::<Vec<_>>(),
        "snapshot carries the placement"
    );

    // A snapshot of a drained cluster is empty too, and draining the
    // original after snapshotting does not reach into the snapshot.
    let drained = c.take_events();
    assert_eq!(drained.len(), 2);
    assert!(c.snapshot().events().is_empty());
    assert!(snap.events().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Copy-on-write snapshots isolate writes: after a snapshot is taken,
    /// the base and the snapshot each run their own op schedule, in
    /// alternating halves, and after every half each side matches a
    /// freshly built twin that replayed only its own history. A side that
    /// saw one of the other's writes would diverge from its twin. A
    /// second snapshot that never writes keeps matching the shared
    /// history and copies nothing.
    #[test]
    fn snapshot_writes_are_isolated(
        seed in 0u64..500,
        shared_ops in proptest::collection::vec((0u8..8, 0usize..64), 0..24),
        base_ops in proptest::collection::vec((0u8..8, 0usize..64), 0..24),
        snap_ops in proptest::collection::vec((0u8..8, 0usize..64), 0..24),
        t in 0.0f64..500.0,
    ) {
        let isolation = IsolationConfig::cloud_default();
        let fresh = || Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        let mut base = fresh();
        apply_ops(&mut base, &shared_ops, seed);
        let mut snap = base.snapshot();
        let reader = base.snapshot();

        let mut base_twin = fresh();
        let mut snap_twin = fresh();
        let mut reader_twin = fresh();
        for twin in [&mut base_twin, &mut snap_twin, &mut reader_twin] {
            apply_ops(twin, &shared_ops, seed);
        }

        let (mut base_written, mut snap_written) = (BTreeSet::new(), BTreeSet::new());
        let (base_a, base_b) = base_ops.split_at(base_ops.len() / 2);
        let (snap_a, snap_b) = snap_ops.split_at(snap_ops.len() / 2);
        for (half, (base_half, snap_half)) in [(base_a, snap_a), (base_b, snap_b)]
            .into_iter()
            .enumerate()
        {
            let half_seed = seed ^ (0xA5 << half);
            base_written.extend(apply_ops(&mut base, base_half, half_seed));
            apply_ops(&mut base_twin, base_half, half_seed);
            snap_written.extend(apply_ops(&mut snap, snap_half, half_seed ^ 0x5A));
            apply_ops(&mut snap_twin, snap_half, half_seed ^ 0x5A);

            assert_observables_match(&base, &base_twin, t, seed ^ 0xBA5E);
            assert_observables_match(&snap, &snap_twin, t, seed ^ 0x5A4D);
            assert_observables_match(&reader, &reader_twin, t, seed ^ 0x4EAD);
        }

        prop_assert_eq!(base.events(), base_twin.events(), "base trace diverged");
        let shared_len = reader_twin.events().len();
        prop_assert_eq!(
            snap.events(),
            &snap_twin.events()[shared_len..],
            "snapshot trace diverged"
        );
        prop_assert!(reader.events().is_empty());
        prop_assert_eq!(reader.storage_stats().placement_copies, 0);
        prop_assert!(base.storage_stats().placement_copies <= 1);
        prop_assert!(snap.storage_stats().placement_copies <= 1);
        // Writes copy only the server records they touch, each at most once.
        prop_assert_eq!(reader.storage_stats().server_copies, 0);
        prop_assert!(base.storage_stats().server_copies <= base_written.len() as u64);
        prop_assert!(snap.storage_stats().server_copies <= snap_written.len() as u64);
    }

    /// The cross-snapshot sweep memo is byte-invisible: a cluster whose
    /// snapshots publish and reuse shared sweeps produces exactly the
    /// observables (and query-RNG stream state) of one that recomputes
    /// every query, through arbitrary churn before the attach and another
    /// mutation (which detaches the memo) after it.
    #[test]
    fn shared_sweep_memo_is_byte_invisible(
        seed in 0u64..500,
        ops in proptest::collection::vec((0u8..8, 0usize..64), 1..40),
        t in 0.0f64..500.0,
    ) {
        let isolation = IsolationConfig::cloud_default();
        let mut plain = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        let mut memod = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        apply_ops(&mut plain, &ops, seed);
        apply_ops(&mut memod, &ops, seed);

        let memo = std::sync::Arc::new(SweepMemo::new());
        memod.share_sweeps(std::sync::Arc::clone(&memo));

        // Two rounds of snapshots: round 0 publishes every deterministic
        // query, round 1 answers them from the memo. Both must match the
        // memo-less cluster bit for bit.
        for round in 0..2u64 {
            let a = plain.snapshot();
            let b = memod.snapshot();
            assert_observables_match(&a, &b, t, seed ^ 0x5EE9 ^ round);
        }

        // A mutation detaches the memo; stale entries must not serve.
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let p = profile(3, &mut rng).with_vcpus(1);
        let mut rng2 = StdRng::seed_from_u64(seed ^ 1);
        let q = profile(3, &mut rng2).with_vcpus(1);
        if let (Some(sa), Some(sb)) =
            (plain.least_loaded_server(p.vcpus()), memod.least_loaded_server(q.vcpus()))
        {
            plain.launch_on(sa, p, VmRole::Friendly, t).expect("fits");
            memod.launch_on(sb, q, VmRole::Friendly, t).expect("fits");
            assert_observables_match(&plain, &memod, t + 0.5, seed ^ 0xDE7A);
        }
    }
}

/// Sharing accounting is exact and mutation detaches: two snapshots
/// issuing the same deterministic query cost one co-resident walk plus
/// one memo hit, and a mutated snapshot stops consulting entirely.
#[test]
fn sweep_memo_counts_shared_queries_and_detaches_on_mutation() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut c =
        Cluster::new(2, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
    let observer = c
        .launch_on(
            0,
            profile(0, &mut rng).with_vcpus(1),
            VmRole::Adversarial,
            0.0,
        )
        .expect("fits");
    c.set_pressure_override(observer, Some(PressureVector::zero()))
        .expect("vm is live");
    for k in 0..3 {
        // Zero-noise tenants: the whole server is deterministic, so the
        // cacheable gate (and with it the memo) engages.
        c.launch_on(
            0,
            profile(k, &mut rng).with_noise(0.0).with_vcpus(1),
            VmRole::Friendly,
            0.0,
        )
        .expect("fits");
    }
    let memo = std::sync::Arc::new(SweepMemo::new());
    c.share_sweeps(std::sync::Arc::clone(&memo));

    let t = 12.5;
    let a = c.snapshot();
    let b = c.snapshot();
    // Cold query: the top-level probe consults once, and the
    // couple-progress recursion consults once per deterministic
    // neighbor — every consult misses and publishes.
    let va = a.interference_on(observer, t, &mut rng).expect("probe");
    let cold_lookups = memo.lookups();
    let published = memo.distinct();
    assert_eq!(
        cold_lookups, published,
        "every cold consult misses and publishes"
    );
    assert!(published >= 1, "the deterministic server must publish");
    // Warm identical query from a sibling snapshot: exactly one consult
    // (the top-level hit short-circuits the recursion), nothing new
    // published, and the bytes match the cold computation.
    let vb = b.interference_on(observer, t, &mut rng).expect("probe");
    assert_eq!(va, vb, "memo hit must return the computed bytes");
    assert_eq!(
        memo.lookups(),
        cold_lookups + 1,
        "warm query costs one consult"
    );
    assert_eq!(memo.distinct(), published, "warm query publishes nothing");
    assert_eq!(memo.shared(), 1, "the one warm consult was shared");

    // Mutating a snapshot detaches it: no further consults or publishes.
    let mut mutated = c.snapshot();
    let extra = mutated
        .launch_on(1, profile(5, &mut rng).with_vcpus(1), VmRole::Friendly, 1.0)
        .expect("fits");
    mutated.terminate(extra).expect("vm is live");
    let _ = mutated
        .interference_on(observer, t, &mut rng)
        .expect("probe");
    assert_eq!(
        memo.lookups(),
        cold_lookups + 1,
        "a diverged snapshot must not consult"
    );
    assert_eq!(
        memo.distinct(),
        published,
        "a diverged snapshot must not publish"
    );
}
