//! Serving spawns no search threads: `Server::spawn` starts the accept
//! loop and nothing else, whatever its search-slot count, and a
//! session's searches run on the session thread plus the engine's
//! persistent pool. Its own binary, so no other test's threads come and
//! go meanwhile.
#![cfg(target_os = "linux")]

use selc_engine::{configured_threads, Engine, TreeEval, TreeStep};
use selc_serve::{Client, Response, ServeConfig, Server, Workload};

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads").count()
}

/// A depth-8 decision tree whose leaf `i` scores `i % 7`: wide enough
/// that a walk on any plausible worker count splits into a subtree root
/// per worker.
struct Mod7;

impl Mod7 {
    fn step(path: u64, len: u32) -> TreeStep<(), f64> {
        if len == 8 {
            TreeStep::Leaf { loss: (path % 7) as f64, used: len }
        } else {
            TreeStep::Node { node: (), hint: None }
        }
    }
}

impl TreeEval<f64> for Mod7 {
    type Node = ();
    fn depth(&self) -> u32 {
        8
    }
    fn enter(&self, prefix: u64, len: u32) -> TreeStep<(), f64> {
        Mod7::step(prefix, len)
    }
    fn child(&self, _node: &(), _decision: bool, path: u64, len: u32) -> TreeStep<(), f64> {
        Mod7::step(path, len)
    }
}

#[test]
fn serving_adds_the_accept_thread_and_one_thread_per_session() {
    // Warm the engine pool to the width every served search asks for.
    let warm = Engine::with_threads(configured_threads()).search(&Mod7).expect("leaves");
    assert_eq!(warm.stats.threads, configured_threads(), "the walk asked for every helper");
    let before = os_threads();
    let server = Server::spawn(ServeConfig::loopback(4, 8)).expect("bind loopback");
    let spawned = os_threads();
    assert_eq!(spawned, before + 1, "four search slots, one accept thread, no workers");
    let mut client = Client::connect(server.addr()).expect("connect");
    for choices in [8, 9, 10] {
        let reply = client.search(1, Workload::Chain { choices }, 0).expect("cold chain search");
        assert!(matches!(reply, Response::Ok { .. }), "got {reply:?}");
    }
    assert_eq!(os_threads(), spawned + 1, "the session thread ran every search");
}
