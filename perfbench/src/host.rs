//! Host and input facts recorded with every result, and the process's
//! peak resident memory.

/// Facts that make a result interpretable on another machine.
#[derive(Debug, Clone)]
pub struct Facts {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (also honours CPU quotas).
    pub available_parallelism: usize,
    /// Pipeline worker threads.
    pub workers: usize,
    /// The benchmark seed (the serve phase's request keys and order).
    pub seed: u64,
    /// The generator seed of the benchmark's Internet.
    pub internet_seed: u64,
    /// Source revision, when one can be found.
    pub commit: String,
    /// Raw traces per campaign.
    pub traces: usize,
    /// Committed snapshot bytes.
    pub snapshot_bytes: u64,
    /// Addresses in the committed snapshot.
    pub addresses: usize,
}

impl Facts {
    /// Facts about this host for a run of `seed` on `workers` workers;
    /// the input sizes are filled in as the inputs are built.
    #[must_use]
    pub fn new(seed: u64, workers: usize) -> Facts {
        Facts {
            nproc: nproc(),
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            workers,
            seed,
            internet_seed: 0,
            commit: commit_hash(),
            traces: 0,
            snapshot_bytes: 0,
            addresses: 0,
        }
    }

    /// One-line JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"workers\": {}, \"seed\": {}, \
             \"internet_seed\": {}, \"commit\": \"{}\", \"traces\": {}, \"snapshot_bytes\": {}, \
             \"addresses\": {}}}",
            self.nproc,
            self.available_parallelism,
            self.workers,
            self.seed,
            self.internet_seed,
            self.commit,
            self.traces,
            self.snapshot_bytes,
            self.addresses,
        )
    }
}

/// Reads one `Key:` line of this process's `/proc/self/status`.
fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':').map(|v| v.trim().to_string()))
}

/// CPUs in this process's affinity mask, as `nproc` counts them.
fn nproc() -> usize {
    let Some(list) = proc_status("Cpus_allowed_list") else {
        return std::thread::available_parallelism().map_or(1, usize::from);
    };
    list.split(',')
        .map(|range| match range.split_once('-') {
            Some((a, b)) => {
                b.trim().parse::<usize>().unwrap_or(0) + 1 - a.trim().parse::<usize>().unwrap_or(0)
            }
            None => 1,
        })
        .sum()
}

/// Peak resident set size of this process in MB (`VmHWM`), if known.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_status("VmHWM")?.trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The source revision: `git rev-parse HEAD` when run from the root of a
/// git checkout, else `unknown` (an exported tree carries no revision).
fn commit_hash() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
