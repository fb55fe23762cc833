//! The mux connection loops have no timer: an idle connection's loop,
//! client driver and reader threads sleep until something happens.
//! Alone in this file — so alone in its process — because it finds the
//! mux threads of the process by name and reads their scheduler
//! counters.

#![cfg(target_os = "linux")]

use std::sync::mpsc;
use std::time::Duration;

use minshare_net::tcp::{TcpAcceptor, TcpTransport};
use minshare_net::{
    serve_mux_connection, MuxClient, MuxConfig, SessionRegistry, SessionTransport, ShutdownHandle,
    Transport,
};

/// This thread's kernel id, from `/proc/thread-self` (`PID/task/TID`).
fn own_tid() -> String {
    let link = std::fs::read_link("/proc/thread-self").unwrap();
    link.file_name().unwrap().to_string_lossy().into_owned()
}

/// Kernel ids of this process's threads named `name`.
fn tids_named(name: &str) -> Vec<String> {
    let mut tids: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|tid| {
            std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|comm| comm.trim() == name)
        })
        .collect();
    tids.sort();
    tids
}

/// How often each thread has gone to sleep of its own accord.
fn voluntary_switches(tids: &[String]) -> Vec<u64> {
    tids.iter()
        .map(|tid| {
            let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).unwrap();
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        })
        .collect()
}

/// An idle loopback connection, held for 400 ms after one STATS round
/// trip has shown both loops up: the server loop, the client driver and
/// both reader threads must not wake once. A loop that polls — for a
/// frame or for the shutdown flag — wakes on every poll.
#[test]
fn idle_connection_threads_never_wake() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let shutdown = ShutdownHandle::new();
    let server_shutdown = shutdown.clone();
    let (loop_tid_tx, loop_tid) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let (t, _) = acceptor.accept().unwrap();
        loop_tid_tx.send(own_tid()).unwrap();
        serve_mux_connection(
            t,
            &MuxConfig::default(),
            &SessionRegistry::new(1),
            &server_shutdown,
            None,
            |_sid, _request, mut t: SessionTransport| while t.recv().is_ok() {},
        )
    });
    let mut client = MuxClient::new(TcpTransport::connect(addr).unwrap(), MuxConfig::default());
    assert_eq!(client.fetch_stats().unwrap(), b"{}");

    let mut threads = vec![loop_tid.recv().unwrap()];
    threads.extend(tids_named("mux-client"));
    threads.extend(tids_named("mux-reader"));
    assert_eq!(threads.len(), 4, "loop, driver and two readers");
    // Let the STATS round trip's last hand-offs settle.
    std::thread::sleep(Duration::from_millis(100));
    let before = voluntary_switches(&threads);
    std::thread::sleep(Duration::from_millis(400));
    let after = voluntary_switches(&threads);
    assert_eq!(after, before, "voluntary context switches of {threads:?}");

    client.close().unwrap();
    shutdown.shutdown();
    server.join().unwrap().unwrap();
}
