//! The mux connection loops over real loopback TCP, where they are fed
//! by a reader thread and woken per event. That the loops have no timer
//! at all is pinned structurally, by the scheduler counters of an idle
//! connection's threads (`mux_idle_wakeups.rs`); here are the paths a
//! frame or a shutdown takes through them.

use std::sync::mpsc;
use std::time::Duration;

use minshare_net::tcp::{TcpAcceptor, TcpTransport};
use minshare_net::{
    serve_mux_connection, MuxClient, MuxConfig, MuxFrame, MuxKind, ServerStats, SessionRegistry,
    SessionTransport, ShutdownHandle, Transport,
};

fn echo(_sid: u32, _request: Vec<u8>, mut t: SessionTransport) {
    while let Ok(frame) = t.recv() {
        if t.send(&frame).is_err() {
            break;
        }
    }
}

fn ping_pong<T: Transport>(t: &mut T, rounds: usize) {
    for i in 0..rounds {
        let ping = [i as u8; 32];
        t.send(&ping).unwrap();
        assert_eq!(t.recv().unwrap(), ping);
    }
}

/// 200 echo round trips on a bare socket, then 200 through the mux on
/// the same socket (client session → driver → socket → server loop →
/// handler, and back): the transport's receive buffer carries over into
/// the mux's reader thread.
#[test]
fn mux_and_raw_round_trips_share_one_socket() {
    const ROUNDS: usize = 200;
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut t, _) = acceptor.accept().unwrap();
        for _ in 0..ROUNDS {
            let frame = t.recv().unwrap();
            t.send(&frame).unwrap();
        }
        // The same socket now carries the mux.
        serve_mux_connection(
            t,
            &MuxConfig::default(),
            &SessionRegistry::new(1),
            &ShutdownHandle::new(),
            None,
            echo,
        )
    });
    let mut tcp = TcpTransport::connect(addr).unwrap();
    ping_pong(&mut tcp, ROUNDS);
    let mut client = MuxClient::new(tcp, MuxConfig::default());
    let mut session = client.open_session(b"echo").unwrap();
    ping_pong(&mut session, ROUNDS);
    drop(session);
    client.close().unwrap();
    let stats = server.join().unwrap().unwrap();
    assert_eq!(stats.opened, 1);
}

/// An idle connection has no frame to wake it: shutdown wakes the loop
/// with an event of its own, and the loop says its farewell and returns.
#[test]
fn idle_connection_returns_within_a_second_of_shutdown() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let shutdown = ShutdownHandle::new();
    let server_shutdown = shutdown.clone();
    let (done_tx, done) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let (t, _) = acceptor.accept().unwrap();
        let result = serve_mux_connection(
            t,
            &MuxConfig::default(),
            &SessionRegistry::new(1),
            &server_shutdown,
            None,
            echo,
        );
        done_tx.send(result).unwrap();
    });
    // Connected, and saying nothing.
    let mut peer = TcpTransport::connect(addr).unwrap();
    // One session first, so the loop is known to be up and then idle.
    peer.send(&MuxFrame::open(1, b"echo".to_vec()).encode())
        .unwrap();
    assert_eq!(
        MuxFrame::decode(&peer.recv().unwrap()).unwrap().kind,
        MuxKind::Accept
    );
    peer.send(&MuxFrame::control(MuxKind::Close, 1).encode())
        .unwrap();
    shutdown.shutdown();
    let stats: ServerStats = done
        .recv_timeout(Duration::from_secs(1))
        .expect("idle connection did not notice shutdown within 1 s")
        .unwrap();
    assert_eq!(stats.opened, 1);
    // The farewell reached the peer before the socket closed.
    let farewell = loop {
        let frame = MuxFrame::decode(&peer.recv().unwrap()).unwrap();
        if frame.kind != MuxKind::Close {
            break frame.kind;
        }
    };
    assert_eq!(farewell, MuxKind::Goaway);
    server.join().unwrap();
}

/// A peer that writes DATA for a session nobody reads, as fast as the
/// socket takes it: the session is shed once, the flood that follows is
/// dropped frame by frame, and the connection keeps serving. (That the
/// reader cannot run ahead of the loop by more than its window is pinned
/// next to the reader, in `server.rs`.)
#[test]
fn flooded_session_is_shed_and_the_connection_survives() {
    const FLOOD: u32 = 20_000;
    let config = MuxConfig {
        session_queue_depth: 4,
        ..MuxConfig::default()
    };
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (t, _) = acceptor.accept().unwrap();
        serve_mux_connection(
            t,
            &config,
            &SessionRegistry::new(2),
            &ShutdownHandle::new(),
            None,
            |sid, request, mut t: SessionTransport| {
                if request == b"deaf" {
                    // Never reads a frame; waits out the shed.
                    while t.recv().is_ok() {}
                } else {
                    echo(sid, request, t);
                }
            },
        )
    });
    let mut peer = TcpTransport::connect(addr).unwrap();
    peer.send(&MuxFrame::open(1, b"deaf".to_vec()).encode())
        .unwrap();
    for seq in 0..FLOOD {
        peer.send(&MuxFrame::data(1, seq, vec![0xAB; 256]).encode())
            .unwrap();
    }
    peer.send(&MuxFrame::open(2, b"echo".to_vec()).encode())
        .unwrap();
    peer.send(&MuxFrame::data(2, 0, b"still here".to_vec()).encode())
        .unwrap();
    let mut seen = Vec::new();
    loop {
        let frame = MuxFrame::decode(&peer.recv().unwrap()).unwrap();
        let last = frame.kind == MuxKind::Data;
        seen.push((frame.kind, frame.session, frame.payload));
        if last {
            break;
        }
    }
    // Session 1 is closed by the shed, and once more when its handler
    // drops the transport; the second may land anywhere after the first.
    let shed_close = (MuxKind::Close, 1, vec![]);
    assert_eq!(seen.get(1), Some(&shed_close));
    seen.retain(|frame| *frame != shed_close);
    assert_eq!(
        seen,
        vec![
            (MuxKind::Accept, 1, vec![]),
            (MuxKind::Accept, 2, vec![]),
            (MuxKind::Data, 2, b"still here".to_vec()),
        ]
    );
    peer.send(&MuxFrame::control(MuxKind::Close, 2).encode())
        .unwrap();
    peer.send(&MuxFrame::control(MuxKind::Goaway, 0).encode())
        .unwrap();
    let stats = server.join().unwrap().unwrap();
    assert_eq!(stats.opened, 2);
    assert_eq!(stats.shed_overflow, 1);
    assert_eq!(stats.malformed, 0);
}
