//! `qr2-server` — run the QR2 reranking service from the command line.
//!
//! ```sh
//! qr2-server --addr 127.0.0.1:8080 --diamonds 20000 --homes 50000
//! ```
//!
//! Boots the simulated Blue Nile and Zillow sources, verifies each persisted
//! reconstruction against its source, and serves the REST API plus the
//! single-page UI.

use std::time::Duration;

use qr2_core::ExecutorKind;
use qr2_service::{Qr2App, SourceRegistry};

struct Args {
    addr: String,
    diamonds: usize,
    homes: usize,
    fanout: usize,
    workers: usize,
    session_ttl_secs: u64,
    cache_dir: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:8080".to_string(),
            diamonds: 20_000,
            homes: 50_000,
            fanout: 8,
            workers: 4,
            session_ttl_secs: 900,
            cache_dir: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = take("--addr")?,
            "--diamonds" => {
                args.diamonds = take("--diamonds")?
                    .parse()
                    .map_err(|e| format!("--diamonds: {e}"))?
            }
            "--homes" => {
                args.homes = take("--homes")?
                    .parse()
                    .map_err(|e| format!("--homes: {e}"))?
            }
            "--fanout" => {
                args.fanout = take("--fanout")?
                    .parse()
                    .map_err(|e| format!("--fanout: {e}"))?
            }
            "--workers" => {
                args.workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--session-ttl" => {
                args.session_ttl_secs = take("--session-ttl")?
                    .parse()
                    .map_err(|e| format!("--session-ttl: {e}"))?
            }
            "--cache-dir" => args.cache_dir = Some(take("--cache-dir")?),
            "--help" | "-h" => {
                println!(
                    "qr2-server — the QR2 reranking service\n\n\
                     USAGE: qr2-server [--addr HOST:PORT] [--diamonds N] [--homes N]\n\
                            [--fanout N] [--workers N] [--session-ttl SECS] [--cache-dir DIR]\n\n\
                     --cache-dir persists each source's shared answer cache to\n\
                     DIR/<source>-answers.log and its rank reconstruction to\n\
                     DIR/<source>-recon.log, and warm-starts both at boot, so\n\
                     repeated queries stay free and reconstructed coverage\n\
                     keeps serving across restarts.\n"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if args.fanout == 0 || args.workers == 0 {
        return Err("--fanout and --workers must be >= 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let executor = if args.fanout == 1 {
        ExecutorKind::Sequential
    } else {
        ExecutorKind::Parallel {
            fanout: args.fanout,
        }
    };
    eprintln!(
        "booting QR2: {} diamonds, {} homes, fan-out {}…",
        args.diamonds, args.homes, args.fanout
    );
    let registry = match &args.cache_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: --cache-dir {}: {e}", dir.display());
                std::process::exit(1);
            }
            match SourceRegistry::demo_with_cache_dir(
                args.diamonds,
                args.homes,
                executor,
                Some(dir),
            ) {
                Ok(reg) => reg,
                Err(e) => {
                    eprintln!("error: opening answer caches under {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
        None => SourceRegistry::demo(args.diamonds, args.homes, executor),
    };
    for s in registry.all() {
        let stats = s.cache.stats();
        eprintln!(
            "  answer cache [{}]: {} warm entries (epoch {}, {})",
            s.name,
            stats.entries,
            stats.epoch,
            if stats.persistent {
                "persistent"
            } else {
                "volatile"
            }
        );
    }
    let app = Qr2App::new(registry).with_session_ttl(Duration::from_secs(args.session_ttl_secs));
    for (source, report) in app.verify_caches() {
        eprintln!(
            "  recon verification [{}]: {} tuples, {} queries, {}",
            source,
            report.tuples,
            report.queries,
            if report.stale {
                "stale (flushed and dropped)"
            } else {
                "fresh"
            }
        );
    }
    let server = match app.serve(&args.addr, args.workers) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    eprintln!(
        "QR2 listening on http://{}/  (Ctrl-C to stop)",
        server.addr()
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
