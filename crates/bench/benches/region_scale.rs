//! Region-scale scaling curve: per-probe neighbor-query cost versus
//! region size.
//!
//! Not a paper figure — this pins the storage-layer contract behind the
//! region-scale work (see `DESIGN.md` § "Region-scale storage"): with the
//! per-server residency index, one interference probe costs
//! O(co-residents on that host), so both `ns/probe` and `visits/probe`
//! stay flat as the region grows from tens to thousands of hosts. Under
//! the old full-arena scan both columns grew linearly with total VMs.
//!
//! Every probe below is a first touch (distinct tenant × time pairs), so
//! the numbers measure the honest uncached walk, not aggregate-cache
//! hits.
//!
//! `bench_results/region_scale.csv` pins the deterministic columns
//! (sizes, probes, visits/probe). The wall-clock `ns_per_probe` column
//! differs on every run, so it is printed as a second table on stdout
//! and never written to the CSV.

use bolt::region::scaling_curve;
use bolt::report::Table;
use bolt_bench::{emit, full_scale, show};

fn main() {
    let sizes: &[usize] = if full_scale() {
        &[100, 1000, 10_000]
    } else {
        // Small enough for the default bench sweep; still two orders of
        // magnitude, which is what the flatness claim needs.
        &[10, 100, 1000]
    };
    let vms_per_server = 10;
    eprintln!(
        "measuring first-touch probe cost at {} region sizes (x{} tenants/host)...",
        sizes.len(),
        vms_per_server
    );
    let points = scaling_curve(sizes, vms_per_server, 0xB017).expect("curve runs");

    let mut table = Table::new(vec!["servers", "vms", "probes", "visits_per_probe"]);
    let mut timing = Table::new(vec!["servers", "ns_per_probe"]);
    for p in &points {
        table.row(vec![
            p.servers.to_string(),
            p.vms.to_string(),
            p.probes.to_string(),
            format!("{:.2}", p.visits_per_probe),
        ]);
        timing.row(vec![
            p.servers.to_string(),
            format!("{:.0}", p.ns_per_probe),
        ]);
    }
    emit(
        "region_scale",
        "per-probe neighbor-query cost is independent of region size",
        &table,
    );
    show(
        "region_scale_timing",
        "wall-clock ns per first-touch probe stays flat as the region grows",
        &timing,
    );

    let first = points.first().expect("nonempty curve");
    let last = points.last().expect("nonempty curve");
    println!(
        "{}x servers -> visits/probe {:.2} vs {:.2} ({})",
        last.servers / first.servers.max(1),
        first.visits_per_probe,
        last.visits_per_probe,
        if (last.visits_per_probe - first.visits_per_probe).abs() < 1e-9 {
            "flat"
        } else {
            "NOT FLAT"
        }
    );
}
