//! Fig. 2: probability that a co-scheduled application is memcached, as a
//! function of the pressure it places on resource pairs.
//!
//! Paper: very high L1-i plus high LLC pressure → memcached with high
//! probability; any disk traffic rules it out.

use bolt::fingerprint::{family_heatmap, population, FIG2_PAIRS};
use bolt::report::Table;
use bolt::telemetry::{telemetry_path_from_args, Telemetry, TelemetryLog};
use bolt_bench::{emit, full_scale};

fn main() {
    let telemetry_path = telemetry_path_from_args(std::env::args().skip(1));
    let mut telemetry = Telemetry::recording(telemetry_path.is_some());
    let n = if full_scale() { 2000 } else { 600 };
    eprintln!("building a {n}-instance population...");
    let pop = population(n, 0xF162);
    let grid = 5;

    for (unit, (x, y)) in FIG2_PAIRS.into_iter().enumerate() {
        let mut pair = telemetry.unit(unit);
        let map = family_heatmap(&pop, "memcached", x, y, grid, &mut pair);
        telemetry.extend(pair.into_events());
        let mut table = Table::new(vec![
            format!("{y} \\ {x}"),
            format!("{:.0}", map.center(0)),
            format!("{:.0}", map.center(1)),
            format!("{:.0}", map.center(2)),
            format!("{:.0}", map.center(3)),
            format!("{:.0}", map.center(4)),
        ]);
        for iy in (0..grid).rev() {
            let mut row = vec![format!("{:.0}", map.center(iy))];
            for ix in 0..grid {
                row.push(format!("{:.2}", map.at(ix, iy)));
            }
            table.row(row);
        }
        emit(
            &format!("fig02_memcached_{x}_{y}"),
            "hot region at high L1-i x high LLC; zero everywhere disk is active",
            &table,
        );
    }

    // Headline checks: the high-L1i half of the map carries the memcached
    // mass (the LLC coordinate spreads with value size and load level, so
    // quadrants are compared in aggregate rather than single cells).
    let l1i_llc = family_heatmap(
        &pop,
        "memcached",
        FIG2_PAIRS[0].0,
        FIG2_PAIRS[0].1,
        grid,
        &mut Telemetry::disabled(),
    );
    let half = |lo: bool| -> f64 {
        let cols: Vec<usize> = if lo {
            (0..grid / 2).collect()
        } else {
            (grid / 2..grid).collect()
        };
        let mut sum = 0.0;
        let mut n = 0;
        for &ix in &cols {
            for iy in 0..grid {
                sum += l1i_llc.at(ix, iy);
                n += 1;
            }
        }
        sum / n as f64
    };
    let (hx, hy, hp) = l1i_llc.hottest();
    println!(
        "hottest L1i x LLC cell: ({:.0}%, {:.0}%) with P={hp:.2}; high-L1i half mean {:.2} vs low half {:.2} — {}",
        l1i_llc.center(hx),
        l1i_llc.center(hy),
        half(false),
        half(true),
        if half(false) > half(true) + 0.1 { "shape holds" } else { "MISMATCH" }
    );
    let disk = family_heatmap(
        &pop,
        "memcached",
        bolt_workloads::Resource::DiskBw,
        bolt_workloads::Resource::L2,
        grid,
        &mut Telemetry::disabled(),
    );
    println!(
        "P(memcached | zero disk)={:.2} vs P(memcached | heavy disk)={:.2} — {}",
        disk.column_mean(0),
        disk.column_mean(grid - 1),
        if disk.column_mean(0) > disk.column_mean(grid - 1) {
            "shape holds"
        } else {
            "MISMATCH"
        }
    );

    if let Some(path) = telemetry_path {
        let log = TelemetryLog::from_events(telemetry.into_events());
        match log.write_jsonl(&path) {
            Ok(()) => println!("telemetry: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
