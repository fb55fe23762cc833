//! Connection lifetimes: every thread and descriptor a mux connection
//! takes is given back when it ends. Alone in this file — so alone in
//! its process — because it counts the process's threads and fds.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use minshare_net::tcp::{TcpAcceptor, TcpTransport};
use minshare_net::{
    serve_mux_connection, MuxClient, MuxConfig, SessionRegistry, SessionTransport, ShutdownHandle,
    Transport,
};

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

/// `(threads, fds)` of this process. Reading `/proc/self/fd` holds one
/// descriptor itself, the same one every time.
fn census() -> (usize, usize) {
    (entries("/proc/self/task"), entries("/proc/self/fd"))
}

/// 200 connect → open → close cycles against one acceptor leave the
/// process with the threads and descriptors it started with: the
/// per-connection reader threads are joined and the sockets closed on
/// both sides, by the time `serve_mux_connection` and `MuxClient::close`
/// return.
#[test]
fn connection_cycles_leak_no_threads_and_no_descriptors() {
    const CYCLES: usize = 200;
    let before = census();
    {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(1);
            let shutdown = ShutdownHandle::new();
            let mut opened = 0;
            for _ in 0..CYCLES {
                let (t, _) = acceptor.accept().unwrap();
                let stats = serve_mux_connection(
                    t,
                    &MuxConfig::default(),
                    &registry,
                    &shutdown,
                    None,
                    |_sid, _request, mut t: SessionTransport| while t.recv().is_ok() {},
                )
                .unwrap();
                assert_eq!(stats.completed + stats.closed_by_peer, stats.opened);
                opened += stats.opened;
            }
            opened
        });
        for _ in 0..CYCLES {
            let tcp = TcpTransport::connect(addr).unwrap();
            let mut client = MuxClient::new(tcp, MuxConfig::default());
            let session = client.open_session(b"cycle").unwrap();
            drop(session);
            client.close().unwrap();
        }
        assert_eq!(server.join().unwrap(), CYCLES as u64);
    }
    // A joined thread can stay listed in /proc for a moment after its
    // join returns; a leaked one stays for good.
    let deadline = Instant::now() + Duration::from_secs(5);
    while census() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(census(), before, "(threads, fds) before and after");
}
