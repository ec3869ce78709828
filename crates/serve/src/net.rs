//! Transports: line-oriented serving over stdin/stdout and TCP.
//!
//! Both transports speak the same protocol and share one dispatch
//! routine: each input line is parsed, `stats`/`shutdown` are handled
//! at the transport layer, and everything else is submitted to the
//! server. Replies stream back in completion order through a per-client
//! channel drained by a dedicated writer, so slow jobs never block the
//! reader and a client can keep many jobs in flight on one connection.
//!
//! A malformed line yields one `status:"error"` reply and the
//! connection lives on — chaos clients deliberately interleave garbage
//! with real jobs to prove exactly that.
//!
//! `shutdown` is the graceful-drain trigger for both transports (the
//! workspace vendors no signal-handling crate, so SIGTERM cannot be
//! hooked without `unsafe` libc bindings; EOF on stdin drains too,
//! covering driver scripts that just close the pipe).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

use codesign_trace::json::escape;

use crate::protocol::{parse_request, reply_error};
use crate::server::{Handle, JobRunner, Server, StatsSnapshot};

/// What a dispatched line asked for.
enum Dispatch {
    /// Submitted (or rejected with a reply) — keep reading.
    Continue,
    /// A `shutdown` request: drain and stop. Carries the request id so
    /// the final stats reply can be addressed.
    Shutdown { id: String },
}

/// The stats reply: final or in-flight counters addressed to `id`.
fn reply_stats(id: &str, stats: &StatsSnapshot) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"stats\",\"stats\":{}}}",
        escape(id),
        stats.to_json()
    )
}

fn dispatch_line<R: JobRunner>(line: &str, handle: &Handle<R>, tx: &Sender<String>) -> Dispatch {
    let line = line.trim();
    if line.is_empty() {
        return Dispatch::Continue;
    }
    match parse_request(line) {
        Err(e) => {
            // One typed error per bad line; the connection survives.
            let _ = tx.send(reply_error(None, e.code(), &e.to_string()));
            Dispatch::Continue
        }
        Ok(req) => match req.kind.as_str() {
            "stats" => {
                let _ = tx.send(reply_stats(&req.id, &handle.stats()));
                Dispatch::Continue
            }
            "wait" => {
                // Barrier: block reading until every job accepted so far
                // has resolved, then report. Lets a batch script collect
                // all results before a strict `shutdown`.
                handle.await_quiescence();
                let _ = tx.send(reply_stats(&req.id, &handle.stats()));
                Dispatch::Continue
            }
            "shutdown" => Dispatch::Shutdown { id: req.id },
            _ => {
                handle.submit(req, tx);
                Dispatch::Continue
            }
        },
    }
}

/// Serves line requests from `input`, writing replies to `output`, until
/// EOF or a `shutdown` request; then drains gracefully and (for
/// `shutdown`) emits a final `stats` reply. Returns the final counters.
///
/// This is the `--stdio` transport and the unit-testable core of the
/// TCP one.
pub fn serve_lines<R: JobRunner>(
    server: Server<R>,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<StatsSnapshot> {
    let handle = server.handle();
    let (tx, rx) = channel::<String>();
    // The writer thread decouples job completion from the read loop.
    let writer = std::thread::spawn(move || -> Vec<String> {
        // Replies are collected and the caller writes them: keeps the
        // output handle un-shared. (Bounded by the job count.)
        rx.into_iter().collect()
    });
    let mut shutdown_id = None;
    for line in input.lines() {
        let line = line?;
        match dispatch_line(&line, &handle, &tx) {
            Dispatch::Continue => {}
            Dispatch::Shutdown { id } => {
                shutdown_id = Some(id);
                break;
            }
        }
    }
    if shutdown_id.is_none() {
        // EOF without an explicit shutdown: the script closed the pipe
        // and expects its results — finish accepted work, then stop.
        // (`shutdown` is the strict drain: queued jobs are flushed.)
        handle.await_quiescence();
    }
    let stats = server.shutdown();
    if let Some(id) = shutdown_id {
        let _ = tx.send(reply_stats(&id, &stats));
    }
    drop(tx);
    for reply in writer.join().expect("reply writer panicked") {
        writeln!(output, "{reply}")?;
    }
    output.flush()?;
    Ok(stats)
}

/// Streaming variant of [`serve_lines`] used by the TCP transport: the
/// writer thread owns the output and flushes each reply as it lands.
fn connection_loop<R: JobRunner>(
    stream: &TcpStream,
    handle: &Handle<R>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let write_half = stream.try_clone()?;
    let (tx, rx) = channel::<String>();
    let writer = std::thread::spawn(move || {
        let mut out = std::io::BufWriter::new(write_half);
        for reply in rx {
            if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
                return; // client went away; pending sends are dropped
            }
        }
    });
    // A read timeout keeps idle connections from pinning the acceptor
    // open past shutdown.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut lines = reader;
    let mut buf = String::new();
    loop {
        match lines.read_line(&mut buf) {
            Ok(0) => break, // EOF: client closed its half
            Ok(_) => {
                match dispatch_line(&buf, handle, &tx) {
                    Dispatch::Continue => {}
                    Dispatch::Shutdown { id } => {
                        // Graceful drain: stop admissions, flush the
                        // queue, let in-flight work finish, then report
                        // and stop.
                        handle.drain();
                        handle.await_quiescence();
                        let _ = tx.send(reply_stats(&id, &handle.stats()));
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                buf.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A timeout can fire mid-line, with the line's head
                // already appended to `buf`; keep it — the next
                // `read_line` call appends the tail. Clearing here
                // would split one request into two garbage lines and
                // orphan the client's job.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
    Ok(())
}

/// Serves the job protocol on `listener` until some connection sends
/// `shutdown`. Each connection gets its own reader thread and reply
/// writer; all of them share one server (and therefore one queue, one
/// worker pool, one eval-cache tenant store). Returns the final
/// counters after the drain completes and every connection thread
/// exits.
pub fn serve_tcp<R: JobRunner>(
    server: Server<R>,
    listener: TcpListener,
) -> std::io::Result<StatsSnapshot> {
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut connections = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let handle = server.handle();
                let stop = Arc::clone(&stop);
                connections.push(std::thread::spawn(move || {
                    let _ = connection_loop(&stream, &handle, &stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    for c in connections {
        let _ = c.join();
    }
    Ok(server.shutdown())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use crate::server::{JobError, ServerConfig};
    use codesign_trace::Tracer;
    use std::io::Cursor;

    struct EchoRunner;

    impl JobRunner for EchoRunner {
        fn run(&self, request: &Request, _attempt: u32) -> Result<String, JobError> {
            match request.kind.as_str() {
                "echo" => Ok(format!("echo:{}", request.id)),
                other => Err(JobError::permanent("unknown_kind", other)),
            }
        }
    }

    fn output_lines(bytes: &[u8]) -> Vec<String> {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .map(ToString::to_string)
            .collect()
    }

    #[test]
    fn stdio_round_trip_with_garbage_and_shutdown() {
        let server = Server::new(EchoRunner, ServerConfig::default(), &Tracer::off());
        let input = "\
{\"id\":\"a\",\"kind\":\"echo\"}\n\
this is not json\n\
{\"id\":\"b\",\"kind\":\"nope\"}\n\
{\"id\":\"s\",\"kind\":\"wait\"}\n\
{\"id\":\"z\",\"kind\":\"shutdown\"}\n";
        let mut out = Vec::new();
        let stats = serve_lines(server, Cursor::new(input), &mut out).unwrap();
        let lines = output_lines(&out);
        assert!(lines.iter().any(|l| l.contains("echo:a")), "{lines:?}");
        assert!(
            lines.iter().any(|l| l.contains("\"code\":\"bad_json\"")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"code\":\"unknown_kind\"")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"id\":\"s\",\"status\":\"stats\"")),
            "{lines:?}"
        );
        // The shutdown reply carries the final counters.
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"id\":\"z\",\"status\":\"stats\"")),
            "{lines:?}"
        );
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn eof_without_shutdown_still_drains() {
        let server = Server::new(EchoRunner, ServerConfig::default(), &Tracer::off());
        let input = "{\"id\":\"only\",\"kind\":\"echo\"}\n";
        let mut out = Vec::new();
        let stats = serve_lines(server, Cursor::new(input), &mut out).unwrap();
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.terminal(), stats.accepted);
    }

    #[test]
    fn a_line_split_across_the_read_timeout_is_reassembled() {
        // The connection reader's 200ms read timeout can fire while a
        // request line is only partially received. The partial head
        // must survive the timeout and join its tail — not be dropped
        // (orphaning the job) or dispatched as garbage.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Server::new(EchoRunner, ServerConfig::default(), &Tracer::off());
        let acceptor = std::thread::spawn(move || serve_tcp(server, listener).unwrap());

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        s.write_all(b"{\"id\":\"sp").unwrap();
        s.flush().unwrap();
        // Two full timeout windows: the reader definitely sees
        // WouldBlock with the head already buffered.
        std::thread::sleep(Duration::from_millis(500));
        s.write_all(b"lit\",\"kind\":\"echo\"}\n").unwrap();
        s.flush().unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("echo:split"), "{line}");

        let mut s = TcpStream::connect(addr).unwrap();
        writeln!(s, "{{\"id\":\"down\",\"kind\":\"shutdown\"}}").unwrap();
        let stats = acceptor.join().unwrap();
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.terminal(), stats.accepted);
    }

    #[test]
    fn tcp_serves_multiple_clients_and_shuts_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Server::new(EchoRunner, ServerConfig::default(), &Tracer::off());
        let acceptor = std::thread::spawn(move || serve_tcp(server, listener).unwrap());

        let client = |id: &str| -> Vec<String> {
            let mut s = TcpStream::connect(addr).unwrap();
            writeln!(s, "{{\"id\":\"{id}\",\"kind\":\"echo\"}}").unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            vec![line.trim().to_string()]
        };
        let a = client("c1");
        let b = client("c2");
        assert!(a[0].contains("echo:c1"), "{a:?}");
        assert!(b[0].contains("echo:c2"), "{b:?}");

        let mut s = TcpStream::connect(addr).unwrap();
        writeln!(s, "{{\"id\":\"down\",\"kind\":\"shutdown\"}}").unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("\"status\":\"stats\""), "{line}");

        let stats = acceptor.join().unwrap();
        assert_eq!(stats.ok, 2);
        assert_eq!(stats.terminal(), stats.accepted);
    }
}
