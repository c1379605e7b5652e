//! Generate the synthetic Internet and print its shape.
//!
//! ```text
//! netgen [options]
//!
//! options:
//!   --scale <n>         catalog replicas (default 1; 10 → 600 ASes)
//!   --scale-factor <f>  per-AS router scale (default 0.05)
//!   --seed <n>          generator seed (default 2025)
//!   --vps <n>           vantage point count (default 8)
//!   --sr-adoption <f>   fraction of SR-capable ASes deploying (default 1.0)
//!
//! Prints one summary line per replica plus workspace totals. The
//! catalog-scale knob is the pipeline's throughput axis: replica 0 is
//! always the Table 5 catalog verbatim, so
//! `--scale 1` output is byte-identical to the default pipeline input.
//! ```

use arest_netgen::internet::{generate, GenConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = GenConfig::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => config.catalog_scale = next_value(&mut iter, "--scale"),
            "--scale-factor" => config.scale = next_value(&mut iter, "--scale-factor"),
            "--seed" => config.seed = next_value(&mut iter, "--seed"),
            "--vps" => config.vp_count = next_value(&mut iter, "--vps"),
            "--sr-adoption" => config.sr_adoption = next_value(&mut iter, "--sr-adoption"),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown option {other}")),
        }
    }

    eprintln!(
        "generating the synthetic Internet (catalog ×{}, scale {}, seed {})…",
        config.catalog_scale, config.scale, config.seed
    );
    let internet = generate(&config);
    let catalog = internet.plans.len() / config.catalog_scale.max(1);
    for (replica, chunk) in internet.plans.chunks(catalog).enumerate() {
        let routers: usize = chunk.iter().map(|p| p.routers.len()).sum();
        let sr = chunk.iter().filter(|p| !p.sr_members.is_empty()).count();
        println!(
            "replica {replica}: {} ASes (asn {}..{}), {routers} routers, {sr} SR-deployed",
            chunk.len(),
            chunk.first().map_or(0, |p| p.entry.asn),
            chunk.last().map_or(0, |p| p.entry.asn),
        );
    }
    println!(
        "total: {} ASes, {} routers, {} links, {} VPs, {} routes, {} SR addrs, {} LDP addrs",
        internet.plans.len(),
        internet.net.topo().router_count(),
        internet.net.topo().link_count(),
        internet.vps.len(),
        internet.routes.len(),
        internet.ground_truth.sr_addresses.len(),
        internet.ground_truth.ldp_addresses.len(),
    );
}

fn next_value<T: std::str::FromStr>(iter: &mut impl Iterator<Item = String>, flag: &str) -> T {
    iter.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: netgen [--scale <replicas>] [--scale-factor <f>] [--seed <n>] \
         [--vps <n>] [--sr-adoption <f>]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
