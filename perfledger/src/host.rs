//! Environment hygiene and the host fingerprint printed with every result.

use std::path::Path;

/// Variables that change what the program computes or where it persists
/// tuning state. The benchmark clears them so that a run never reads the
/// caller's tune caches, never appends to a committed one (such as
/// `results/gemm.tune`), and never switches kernels behind the caller's
/// back.
const CLEARED: [&str; 4] = [
    "DLSR_TUNE_CACHE",
    "DLSR_COMM_TUNE",
    "DLSR_BF16",
    "DLSR_FORCE_SCALAR",
];

/// What the run executed on, and with how many threads.
pub struct Fingerprint {
    isa: String,
    pub nproc: usize,
    rayon_threads: usize,
    revision: String,
    force_scalar: bool,
}

/// Clear the tuning variables, pin the data-parallel pool to at most
/// `nproc` threads and, for the liveness check only, force the scalar
/// GEMM kernels. Must run before any thread starts and before the first
/// kernel call (both the pool size and the ISA are read once per process).
pub fn prepare(force_scalar: bool) -> Fingerprint {
    for var in CLEARED {
        std::env::remove_var(var);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rayon_threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map_or(nproc, |n| n.min(nproc));
    std::env::set_var("RAYON_NUM_THREADS", rayon_threads.to_string());
    if force_scalar {
        std::env::set_var("DLSR_FORCE_SCALAR", "1");
    }
    Fingerprint {
        isa: format!("{:?}", dlsr_tensor::kernels::isa()),
        nproc,
        rayon_threads: rayon::current_num_threads(),
        revision: revision(Path::new(".git")),
        force_scalar,
    }
}

impl Fingerprint {
    pub fn print(&self) {
        println!(
            "host: isa={} nproc={} rayon_threads={} sim_workers<={} revision={}{}",
            self.isa,
            self.nproc,
            self.rayon_threads,
            self.nproc,
            self.revision,
            if self.force_scalar {
                " DLSR_FORCE_SCALAR=1"
            } else {
                ""
            },
        );
    }
}

/// The checked-out commit, read from the git metadata without running
/// git; `unknown` outside a git checkout.
fn revision(git: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
