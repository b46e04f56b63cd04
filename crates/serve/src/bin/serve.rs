//! `selc-serve` — run the search service from the command line, or
//! scrape one that is already running.
//!
//! With no arguments the process serves until killed. Configuration is
//! entirely environmental (the workspace's knob style):
//! `SELC_SERVE_PORT`, `SELC_SERVE_WORKERS`, `SELC_SERVE_MAX_SESSIONS`
//! shape the server; `SELC_THREADS` and `SELC_CACHE_CAP`
//! shape each search and tenant cache, as everywhere else; and
//! `SELC_METRICS` defaults **on** for the daemon so it is born
//! scrapeable.
//!
//! `selc-serve metrics [host:port]` connects to a live server, issues
//! a `Metrics` request, and prints the snapshot as plain text — one
//! `name value` line per metric, histograms as `count=… p50=… p90=…
//! p99=…` — the exposition format for shell pipelines and smoke
//! checks. The address defaults to the default listen address.

use selc_serve::{Client, Response, ServeConfig, Server, DEFAULT_PORT};

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next() {
        None => run_server(),
        Some(cmd) if cmd == "metrics" => scrape(args.next()),
        Some(other) => {
            eprintln!("selc-serve: unknown command {other:?}");
            eprintln!("usage: selc-serve            (run the service)");
            eprintln!("       selc-serve metrics [host:port]   (scrape a live one)");
            std::process::exit(2);
        }
    }
}

fn run_server() {
    let config = ServeConfig::from_env();
    let server = match Server::spawn(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("selc-serve: cannot bind 127.0.0.1:{}: {e}", config.port);
            std::process::exit(1);
        }
    };
    println!(
        "selc-serve listening on {} ({} concurrent searches, {} max sessions)",
        server.addr(),
        config.workers,
        config.max_sessions
    );
    // Serve until the process is killed; the threads do all the work.
    loop {
        std::thread::park();
    }
}

fn scrape(addr: Option<String>) {
    let addr = addr.unwrap_or_else(|| format!("127.0.0.1:{DEFAULT_PORT}"));
    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("selc-serve: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    match client.metrics() {
        Ok(Response::Metrics(wire)) => {
            if wire.truncated {
                eprintln!("selc-serve: snapshot truncated to fit one frame");
            }
            print!("{}", wire.to_snapshot().render_text());
        }
        Ok(other) => {
            eprintln!("selc-serve: unexpected response {other:?}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("selc-serve: scrape failed: {e}");
            std::process::exit(1);
        }
    }
}
