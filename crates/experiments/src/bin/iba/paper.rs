//! The paper's artifacts: Figure 3, Tables 1 and 2, and the ablations.

use crate::FIDELITY;
use iba_campaign::write_atomic;
use iba_experiments::cli::{Args, Command, Flag};
use iba_experiments::fig3::{self, Fig3Config};
use iba_experiments::table1::{self, Table1Config};
use iba_experiments::table2::{self, Table2Config};
use iba_experiments::{ablation, Fidelity};
use iba_stats::csv_table;
use iba_workloads::TrafficPattern;

pub const FIG3: Command = Command {
    name: "fig3",
    about: "Figure 3 (a–d): latency vs accepted traffic at 0–100 % adaptive traffic",
    positional: &[],
    flags: &[&[
        FIDELITY,
        Flag::value("sizes", "a,b", "fabric sizes, switches [8,16,32,64]"),
        Flag::value("fractions", "a,b", "adaptive fractions [0,0.25,0.5,0.75,1]"),
        Flag::value("seed", "N", "first topology seed [100]"),
        Flag::value("csv", "PATH", "also write the curves as CSV"),
        Flag::value("gnuplot", "DIR", "also write a gnuplot bundle here"),
    ]],
    run: fig3,
};

fn fig3(args: &Args) -> Result<(), String> {
    let fidelity = args.get_or("fidelity", Fidelity::Quick)?;
    let mut cfg = Fig3Config::paper(fidelity, args.get_or("seed", 100u64)?);
    cfg.sizes = args.get_list_or("sizes", &cfg.sizes)?;
    cfg.fractions = args.get_list_or("fractions", &cfg.fractions)?;
    eprintln!(
        "fig3: {:?} fidelity, sizes {:?}, {} topologies each",
        fidelity,
        cfg.sizes,
        fidelity.topologies()
    );
    let results = fig3::run(&cfg).map_err(|e| e.to_string())?;
    for r in &results {
        println!("{}", fig3::render_size(r));
    }
    if let Some(dir) = args.get("gnuplot") {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut script = String::from(concat!(
            "# Figure 3 reproduction — run `gnuplot fig3.gp`\n",
            "set terminal pngcairo size 900,600\n",
            "set xlabel 'Accepted traffic (bytes/ns/switch)'\n",
            "set ylabel 'Average packet latency (ns)'\n",
            "set logscale y\nset key top left\nset grid\n",
        ));
        for r in &results {
            let mut plots = Vec::new();
            for (frac, curve) in &r.curves {
                let name = format!("fig3_{}sw_{:.0}pct.dat", r.size, frac * 100.0);
                let mut dat = String::from("# accepted latency_ns\n");
                for p in curve.points() {
                    if p.avg_latency_ns.is_finite() {
                        dat.push_str(&format!("{:.6} {:.1}\n", p.accepted, p.avg_latency_ns));
                    }
                }
                write_atomic(format!("{dir}/{name}"), dat).map_err(|e| e.to_string())?;
                plots.push(format!(
                    "'{name}' using 1:2 with linespoints title '{:.0}% adaptive'",
                    frac * 100.0
                ));
            }
            script.push_str(&format!(
                "set output 'fig3_{0}sw.png'\nset title 'Figure 3 — {0} switches (uniform, 32 B)'\nplot {1}\n",
                r.size,
                plots.join(", ")
            ));
        }
        write_atomic(format!("{dir}/fig3.gp"), script).map_err(|e| e.to_string())?;
        eprintln!("fig3: gnuplot bundle written to {dir}/");
    }
    if let Some(path) = args.get("csv") {
        let mut rows = Vec::new();
        for r in &results {
            for (frac, curve) in &r.curves {
                for p in curve.points() {
                    rows.push(vec![
                        r.size.to_string(),
                        format!("{frac}"),
                        format!("{:.6}", p.offered),
                        format!("{:.6}", p.accepted),
                        format!("{:.1}", p.avg_latency_ns),
                    ]);
                }
            }
        }
        let header = [
            "switches",
            "adaptive_fraction",
            "offered",
            "accepted",
            "avg_latency_ns",
        ];
        write_atomic(path, csv_table(&header, &rows)).map_err(|e| e.to_string())?;
        eprintln!("fig3: CSV written to {path}");
    }
    Ok(())
}

pub const TABLE1: Command = Command {
    name: "table1",
    about: "Table 1: throughput-increase factors of adaptive over deterministic routing",
    positional: &[],
    flags: &[&[
        FIDELITY,
        Flag::value("block", "left|right", "the paper's block [left]"),
        Flag::value("sizes", "a,b", "fabric sizes, switches [the block's]"),
        Flag::value("links", "N", "inter-switch links per switch [the block's]"),
        Flag::value("options", "N", "routing options [the block's]"),
        Flag::value("packets", "a,b", "packet sizes, bytes [the block's]"),
        Flag::value("patterns", "a,b", "e.g. uniform,hotspot-10 [the block's]"),
        Flag::value("seed", "N", "first topology seed [100]"),
        Flag::value("csv", "PATH", "also write the table as CSV"),
    ]],
    run: table1,
};

fn table1(args: &Args) -> Result<(), String> {
    let fidelity = args.get_or("fidelity", Fidelity::Quick)?;
    let seed = args.get_or("seed", 100u64)?;
    let mut cfg = match args.get("block").unwrap_or("left") {
        "left" => Table1Config::left_block(fidelity, seed),
        "right" => Table1Config::right_block(fidelity, seed),
        other => return Err(format!("unknown --block {other:?}")),
    };
    cfg.sizes = args.get_list_or("sizes", &cfg.sizes)?;
    cfg.links = args.get_or("links", cfg.links)?;
    cfg.options = args.get_or("options", cfg.options)?;
    cfg.packet_sizes = args.get_list_or("packets", &cfg.packet_sizes)?;
    if let Some(pats) = args.get("patterns") {
        cfg.patterns = pats
            .split(',')
            .map(|s| TrafficPattern::from_name(s.trim()).ok_or(format!("unknown pattern {s:?}")))
            .collect::<Result<_, _>>()?;
    }
    eprintln!(
        "table1: {:?} fidelity, sizes {:?}, {} links, {} options, {} topologies",
        fidelity,
        cfg.sizes,
        cfg.links,
        cfg.options,
        fidelity.topologies()
    );
    let cells = table1::run(&cfg).map_err(|e| e.to_string())?;
    println!("{}", table1::render(&cfg, &cells));
    if let Some(path) = args.get("csv") {
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    c.size.to_string(),
                    c.packet_bytes.to_string(),
                    c.pattern.name(),
                    format!("{:.4}", c.factor.min),
                    format!("{:.4}", c.factor.max),
                    format!("{:.4}", c.factor.avg()),
                ]
            })
            .collect();
        let header = ["switches", "packet_bytes", "pattern", "min", "max", "avg"];
        write_atomic(path, csv_table(&header, &rows)).map_err(|e| e.to_string())?;
        eprintln!("table1: CSV written to {path}");
    }
    Ok(())
}

pub const TABLE2: Command = Command {
    name: "table2",
    about: "Table 2: routing options per switch and destination (static analysis)",
    positional: &[],
    flags: &[&[
        Flag::value("sizes", "a,b", "fabric sizes, switches [8,16,32,64]"),
        Flag::value("links", "a,b", "inter-switch links per switch [4,6]"),
        Flag::value("mr", "a,b", "maximum routing options [2,3,4]"),
        Flag::value("topologies", "N", "random topologies per config [10]"),
        Flag::value("seed", "N", "first topology seed [100]"),
        Flag::switch("include-local", "count destinations on the switch itself"),
        Flag::value("csv", "PATH", "also write the table as CSV"),
    ]],
    run: table2,
};

fn table2(args: &Args) -> Result<(), String> {
    let mut cfg = Table2Config::paper(args.get_or("seed", 100u64)?);
    cfg.sizes = args.get_list_or("sizes", &cfg.sizes)?;
    cfg.links = args.get_list_or("links", &cfg.links)?;
    cfg.max_options = args.get_list_or("mr", &cfg.max_options)?;
    cfg.topologies = args.get_or("topologies", cfg.topologies)?;
    cfg.include_local = args.switch("include-local");
    let rows = table2::run(&cfg).map_err(|e| e.to_string())?;
    println!("{}", table2::render(&cfg, &rows));
    if let Some(path) = args.get("csv") {
        let mut out = Vec::new();
        for r in &rows {
            for (k, pct) in r.distribution.percent.iter().enumerate() {
                out.push(vec![
                    r.size.to_string(),
                    r.links.to_string(),
                    r.max_options.to_string(),
                    (k + 1).to_string(),
                    format!("{pct:.4}"),
                ]);
            }
        }
        let csv = csv_table(&["switches", "links", "mr", "options", "percent"], &out);
        write_atomic(path, csv).map_err(|e| e.to_string())?;
        eprintln!("table2: CSV written to {path}");
    }
    Ok(())
}

pub const ABLATION: Command = Command {
    name: "ablation",
    about: "design-choice ablations (§4.3–§5.2.2, DESIGN.md §6)",
    positional: &[(
        "[which]",
        "options|selection|order|buffer|escapehead|mixed|source|all [all]",
    )],
    flags: &[&[
        FIDELITY,
        Flag::value("switches", "N", "fabric size [16]"),
        Flag::value("seed", "N", "first topology seed [100]"),
    ]],
    run: ablation,
};

fn ablation(args: &Args) -> Result<(), String> {
    let which = args.positional.first().map_or("all", String::as_str);
    let fidelity = args.get_or("fidelity", Fidelity::Quick)?;
    let size = args.get_or("switches", 16usize)?;
    let seed = args.get_or("seed", 100u64)?;
    let selected = match which {
        "all" => &ablation::NAMES[..],
        _ => std::slice::from_ref(&which),
    };
    for &name in selected {
        let (title, rows) = ablation::run(name, size, fidelity, seed).map_err(|e| e.to_string())?;
        println!("{}", ablation::render(&title, &rows));
        if name == "options" {
            let sat: Vec<f64> = rows.iter().map(|r| r.saturation.avg()).collect();
            if let [base, two, four] = sat[..] {
                let share = (two - base) / (four - base).max(f64::EPSILON);
                println!(
                    "2 options capture {:.0}% of the 4-option improvement (paper: ~90%)\n",
                    share * 100.0
                );
            }
        }
    }
    Ok(())
}
