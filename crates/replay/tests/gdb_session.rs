//! Scripted GDB Remote Serial Protocol session: a raw-packet TCP client
//! (no gdb binary) drives the server through breakpoints, stepping,
//! reverse-stepping, watchpoints, memory and register access, and
//! detach.

mod common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use codesign_replay::{serve, DebugSession};
use common::build_level;

fn checksum(payload: &str) -> u8 {
    payload.bytes().fold(0u8, |a, b| a.wrapping_add(b))
}

struct Client {
    stream: TcpStream,
}

impl Client {
    /// Sends one packet and returns the server's reply payload (acks
    /// skipped).
    fn exchange(&mut self, payload: &str) -> String {
        let frame = format!("${payload}#{:02x}", checksum(payload));
        self.stream.write_all(frame.as_bytes()).unwrap();
        let mut byte = [0u8; 1];
        // Skip acks until the reply's '$'.
        loop {
            self.stream.read_exact(&mut byte).unwrap();
            if byte[0] == b'$' {
                break;
            }
            assert_eq!(byte[0], b'+', "unexpected byte before reply");
        }
        let mut reply = String::new();
        loop {
            self.stream.read_exact(&mut byte).unwrap();
            if byte[0] == b'#' {
                break;
            }
            reply.push(byte[0] as char);
        }
        let mut ck = [0u8; 2];
        self.stream.read_exact(&mut ck).unwrap();
        let sent = u8::from_str_radix(std::str::from_utf8(&ck).unwrap(), 16).unwrap();
        assert_eq!(sent, checksum(&reply), "reply checksum mismatch");
        reply
    }
}

fn hex_u64_le(v: u64) -> String {
    v.to_le_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

/// In the ladder's `system_program`, instruction 1 is the `outer:` loop
/// head and instruction 10 is the `sw` that pushes into the FIFO's DATA
/// register at bus address `MMIO_BASE + 0x0 = 0x8000_0000`.
const OUTER_PC: u64 = 1;
const WATCH_ADDR: u64 = 0x8000_0000;

/// Spawns the server thread; the debug session is *built inside it*
/// (engines are not `Send` — the whole co-simulation lives and dies on
/// the serving thread).
fn spawn_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (coord, inj) = build_level(1);
        let dbg = DebugSession::new(coord, inj, 4).unwrap();
        serve(&listener, dbg)
    });
    (addr, handle)
}

#[test]
fn scripted_rsp_session() {
    let (addr, server) = spawn_server();

    let mut c = Client {
        stream: TcpStream::connect(addr).unwrap(),
    };

    // Handshake.
    let features = c.exchange("qSupported:swbreak+");
    assert!(features.contains("ReverseStep+"), "got {features}");
    assert!(features.contains("ReverseContinue+"), "got {features}");
    assert_eq!(c.exchange("?"), "S05");
    assert_eq!(c.exchange("vCont?"), "vCont;c;s");
    assert_eq!(
        c.exchange("qUnknownThing"),
        "",
        "unsupported packets get the empty reply"
    );

    // Memory write/read in internal data memory (clear of the program).
    assert_eq!(c.exchange("M100,8:1122334455667788"), "OK");
    assert_eq!(c.exchange("m100,8"), "1122334455667788");
    assert_eq!(c.exchange("m100,zz"), "E01");

    // Scratch register write/read (r8 is unused by the program).
    assert_eq!(c.exchange("P8=2a00000000000000"), "OK");
    assert_eq!(c.exchange("p8"), hex_u64_le(0x2a));
    assert_eq!(c.exchange("p40"), "E01", "register index out of range");

    // Breakpoint on the outer loop head, continue to it.
    assert_eq!(c.exchange(&format!("Z0,{OUTER_PC:x},1")), "OK");
    assert_eq!(c.exchange("c"), "S05");
    assert_eq!(
        c.exchange("p10"),
        hex_u64_le(OUTER_PC),
        "pc parked at the breakpoint"
    );

    // The g block is 17 little-endian u64s, pc last.
    let g = c.exchange("g");
    assert_eq!(g.len(), 17 * 16);
    assert_eq!(&g[16 * 16..], hex_u64_le(OUTER_PC));

    // Step into the breakpointed instruction, then reverse-step back.
    assert_eq!(c.exchange("s"), "S05");
    assert_eq!(c.exchange("p10"), hex_u64_le(OUTER_PC + 1));
    assert_eq!(c.exchange("bs"), "S05");
    assert_eq!(c.exchange("p10"), hex_u64_le(OUTER_PC));

    // Watchpoint on the FIFO DATA register: the producer's `sw` fires it
    // before the loop comes back around to the breakpoint.
    assert_eq!(c.exchange(&format!("Z2,{WATCH_ADDR:x},8")), "OK");
    assert_eq!(c.exchange("c"), format!("T05watch:{WATCH_ADDR:x};"));

    // Reverse-continue lands on the most recent earlier breakpoint state.
    assert_eq!(c.exchange("bc"), "S05");
    assert_eq!(c.exchange("p10"), hex_u64_le(OUTER_PC));

    // Clear both, run to completion, detach.
    assert_eq!(c.exchange(&format!("z2,{WATCH_ADDR:x},8")), "OK");
    assert_eq!(c.exchange(&format!("z0,{OUTER_PC:x},1")), "OK");
    assert_eq!(c.exchange("c"), "W00");
    assert_eq!(c.exchange("D"), "OK");

    server.join().unwrap().unwrap();
}

/// Every exchange is answered at once. The stub sends the `+` ack and
/// the reply packet as two writes before the client sends anything, so
/// without `TCP_NODELAY` on its socket the reply waits for the client's
/// delayed ACK of the `+`: ~40 ms per exchange.
#[test]
fn exchanges_are_not_held_back() {
    let (addr, server) = spawn_server();
    let mut c = Client {
        stream: TcpStream::connect(addr).unwrap(),
    };
    // The first exchange also waits for the session to be built.
    assert_eq!(c.exchange("?"), "S05");
    let started = Instant::now();
    for _ in 0..20 {
        assert_eq!(c.exchange("?"), "S05");
    }
    let elapsed = started.elapsed();
    assert_eq!(c.exchange("D"), "OK");
    server.join().unwrap().unwrap();
    assert!(
        elapsed < Duration::from_millis(250),
        "20 exchanges took {elapsed:?}"
    );
}

#[test]
fn kill_packet_closes_the_session() {
    let (addr, server) = spawn_server();

    let mut c = Client {
        stream: TcpStream::connect(addr).unwrap(),
    };
    assert_eq!(c.exchange("?"), "S05");
    let frame = format!("$k#{:02x}", checksum("k"));
    c.stream.write_all(frame.as_bytes()).unwrap();
    server.join().unwrap().unwrap();
    let mut rest = Vec::new();
    // The server acks the k packet and closes without a reply.
    c.stream.read_to_end(&mut rest).unwrap();
    assert_eq!(rest, b"+");
}

#[test]
fn hostile_packets_are_bounded_and_checked() {
    let (addr, server) = spawn_server();
    let mut c = Client {
        stream: TcpStream::connect(addr).unwrap(),
    };
    let mut byte = [0u8; 1];

    // A bad checksum is nacked and the write never runs.
    let before = c.exchange("m100,8");
    c.stream.write_all(b"$M100,8:1122334455667788#00").unwrap();
    c.stream.read_exact(&mut byte).unwrap();
    assert_eq!(byte[0], b'-');
    c.stream.write_all(b"$?#zz").unwrap();
    c.stream.read_exact(&mut byte).unwrap();
    assert_eq!(byte[0], b'-', "non-hex checksum digits");
    assert_eq!(c.exchange("m100,8"), before, "memory unchanged");

    // A payload at the advertised 0x4000-byte cap is read as a command
    // (an unknown one); a 1 MiB payload is skipped to its checksum and
    // refused.
    assert_eq!(c.exchange(&"a".repeat(0x4000)), "");
    assert_eq!(c.exchange(&"a".repeat(1 << 20)), "E01");
    assert_eq!(c.exchange("?"), "S05", "the session keeps working");

    // A length whose hex-digit count overflows is refused, not a panic.
    assert_eq!(c.exchange("M0,ffffffffffffffff:00"), "E01");
    assert_eq!(c.exchange("D"), "OK");
    server.join().unwrap().unwrap();
}
