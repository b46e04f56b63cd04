//! Serving spawns no search threads: `Server::spawn` starts the accept
//! loop and nothing else, whatever its search-slot count, and a
//! session's searches run on the session thread plus the engine's
//! persistent pool. Its own binary, so no other test's threads come and
//! go meanwhile.
#![cfg(target_os = "linux")]

use selc_engine::{configured_threads, minimize, Engine};
use selc_serve::{Client, Response, ServeConfig, Server, Workload};

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads").count()
}

#[test]
fn serving_adds_the_accept_thread_and_one_thread_per_session() {
    // Warm the engine pool to the width every served search asks for.
    minimize(&Engine::with_threads(configured_threads()), 64, |i| (i % 7) as f64)
        .expect("non-empty space");
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
