//! `mbqc-server` — stand up a compilation service behind the TCP
//! front door.
//!
//! ```text
//! mbqc-server [--addr HOST:PORT] [--workers N]
//!             [--disk DIR] [--queue-limit N]
//!             [--tenant ID:WEIGHT[:QUOTA]]...
//! ```
//!
//! Arguments are hand-parsed (no CLI crates on the offline box).
//! `--tenant` repeats: each adds a [`TenantQuota`] with the given
//! fair-share weight and optional in-flight quota; unlisted tenants
//! get weight 1 and no quota. Prints the configuration in effect, then
//! runs until interrupted.

use mbqc_net::Server;
use mbqc_service::{AdmissionConfig, CompileService, ServiceConfig, TenantQuota};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    workers: usize,
    disk: Option<std::path::PathBuf>,
    queue_limit: Option<usize>,
    tenants: Vec<TenantQuota>,
}

fn usage() -> String {
    "usage: mbqc-server [--addr HOST:PORT] [--workers N] \
     [--disk DIR] [--queue-limit N] [--tenant ID:WEIGHT[:QUOTA]]..."
        .into()
}

fn parse_tenant(spec: &str) -> Result<TenantQuota, String> {
    let mut parts = spec.split(':');
    let id: u32 = parts
        .next()
        .filter(|s| !s.is_empty())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("--tenant {spec}: bad tenant id"))?;
    let weight: u32 = match parts.next() {
        Some(w) => w
            .parse()
            .map_err(|_| format!("--tenant {spec}: bad weight"))?,
        None => 1,
    };
    let quota: Option<u64> = match parts.next() {
        Some(q) => Some(
            q.parse()
                .map_err(|_| format!("--tenant {spec}: bad quota"))?,
        ),
        None => None,
    };
    if parts.next().is_some() {
        return Err(format!("--tenant {spec}: too many fields"));
    }
    let mut t = TenantQuota::new(id).with_weight(weight);
    if let Some(q) = quota {
        t = t.with_max_in_flight(q);
    }
    Ok(t)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7161".into(),
        workers: 0, // 0 = ServiceConfig default
        disk: None,
        queue_limit: None,
        tenants: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers: not a number".to_string())?;
            }
            "--disk" => args.disk = Some(value("--disk")?.into()),
            "--queue-limit" => {
                args.queue_limit = Some(
                    value("--queue-limit")?
                        .parse()
                        .map_err(|_| "--queue-limit: not a number".to_string())?,
                );
            }
            "--tenant" => args.tenants.push(parse_tenant(&value("--tenant")?)?),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = ServiceConfig {
        admission: AdmissionConfig {
            max_queue_depth: args.queue_limit,
            tenants: args.tenants,
        },
        ..ServiceConfig::default()
    };
    if args.workers > 0 {
        config.workers = args.workers;
    }
    config.store.disk_dir = args.disk;
    // Rendered before the config moves into the service.
    let queue_limit = config
        .admission
        .max_queue_depth
        .map_or_else(|| "none".to_string(), |n| n.to_string());
    let disk = config
        .store
        .disk_dir
        .as_ref()
        .map_or_else(|| "none".to_string(), |d| d.display().to_string());
    let tenants = config
        .admission
        .tenants
        .iter()
        .map(|t| match t.max_in_flight {
            Some(q) => format!("{}:{}:{q}", t.tenant, t.weight),
            None => format!("{}:{}", t.tenant, t.weight),
        })
        .collect::<Vec<_>>()
        .join(" ");

    let service = match CompileService::new(config) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("service failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(Arc::clone(&service), args.addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "mbqc-server listening on {}: {} workers, queue limit {}, disk {}, tenants [{}]",
        server.local_addr(),
        service.workers(),
        queue_limit,
        disk,
        tenants,
    );

    // Park forever: the server's threads do the work. No signal
    // handling on the offline box — ^C tears the process down and the
    // OS reclaims the socket.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
