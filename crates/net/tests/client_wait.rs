//! `RemoteSession::wait_event` honours sub-millisecond timeouts: an
//! open-loop driver pacing at tens of kops/s sleeps between schedule slots
//! a few hundred µs at a time, and a wait rounded up to a whole millisecond
//! turns that schedule into bursts.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use kite::wire::{self, ClientFrame, Hello, HELLO_LEN};
use kite_common::{NodeId, SessionId};
use kite_net::RemoteSession;

#[test]
fn sub_millisecond_wait_event_is_not_rounded_up() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // A mock node that answers the hello and then stays silent until the
    // client hangs up, so every wait below times out on an idle socket.
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept client");
        let mut hello = [0u8; HELLO_LEN];
        conn.read_exact(&mut hello).expect("read hello");
        let Ok(Hello::Client { slot }) = wire::decode_hello(&hello) else {
            panic!("expected client hello");
        };
        let mut frame = Vec::new();
        let session = SessionId::new(NodeId(0), slot);
        wire::encode_client_frame(&ClientFrame::HelloOk { session }, &mut frame);
        conn.write_all(&frame).expect("send hello ok");
        let mut sink = [0u8; 64];
        while conn.read(&mut sink).is_ok_and(|n| n > 0) {}
    });

    let s = RemoteSession::connect(&addr, 0).expect("connect");
    let mut took: Vec<Duration> = (0..21)
        .map(|_| {
            let t = Instant::now();
            s.wait_event(Duration::from_micros(200)).expect("wait");
            t.elapsed()
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median wait_event(200 µs) took {median:?}: {took:?}"
    );
    assert!(median >= Duration::from_micros(200), "wait_event returned early: {took:?}");

    drop(s);
    server.join().expect("server thread");
}
