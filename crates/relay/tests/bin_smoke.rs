//! Smoke test of the deployed `relay` binary: it binds, announces its
//! address, registers two clients over real UDP and forwards between them
//! through the same `run_until` loop it runs in production.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, UdpSocket};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use coplay_relay::{wire, RelayMessage};

/// Kills the relay when the test ends, passed or not.
struct Relay(Child);

impl Drop for Relay {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn client() -> UdpSocket {
    let s = UdpSocket::bind("127.0.0.1:0").unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn recv(sock: &UdpSocket) -> Vec<u8> {
    let mut buf = vec![0u8; 2048];
    let (n, _) = sock.recv_from(&mut buf).expect("no datagram within 5 s");
    buf.truncate(n);
    buf
}

#[test]
fn deployed_binary_forwards_between_registered_clients() {
    let mut relay = Relay(
        Command::new(env!("CARGO_BIN_EXE_relay"))
            .args(["--bind", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn relay"),
    );
    let mut line = String::new();
    let stdout = relay.0.stdout.take().expect("piped stdout");
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr: SocketAddr = line
        .strip_prefix("relay: listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"));

    let (a, b) = (client(), client());
    for (sock, site) in [(&a, 0), (&b, 1)] {
        let register = RelayMessage::Register {
            session: 7,
            site,
            spectator: false,
        };
        sock.send_to(&register.encode(), addr).unwrap();
        assert_eq!(
            RelayMessage::decode(&recv(sock)),
            Ok(RelayMessage::Registered { session: 7, site })
        );
    }

    let mut forward = Vec::new();
    wire::encode_forward_into(&mut forward, 1, b"input frame");
    a.send_to(&forward, addr).unwrap();
    let delivered = recv(&b);
    assert_eq!(
        wire::decode_deliver(&delivered),
        Ok((0, &b"input frame"[..]))
    );
}
