//! The network front end: a TCP acceptor and a generic byte-stream
//! driver shared with `--stdin` mode.
//!
//! One request per `\n`-terminated line, one response per line. The line
//! splitter enforces the engine's byte cap *while reading*: an oversized
//! line is answered with a structured `"oversized"` error the moment the
//! cap is crossed, the remaining bytes are discarded up to the next
//! newline, and the connection stays up — the PR-1 depth-cap discipline
//! extended to request length. Invalid UTF-8 gets a structured parse
//! error the same way. A client can never crash the server or silently
//! lose its connection over a bad request.
//!
//! Every response line — the response and its `\n` — leaves in one
//! `write`, on a socket with `TCP_NODELAY` set, so no part of an answer
//! waits in the kernel for the client's next acknowledgement. The
//! acceptor blocks in `accept`; [`Server::shutdown`] wakes it with one
//! loopback connection, which it drops unserved.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use profirt_conc::sync::atomic::{AtomicBool, Ordering};
use profirt_conc::sync::{Arc, Mutex};

use crate::engine::{Engine, EngineConfig};
use crate::proto;

/// Server shape: the bind address plus the engine configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// The engine behind the listener.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
        }
    }
}

/// How often an idle connection's blocked read, and [`Server::wait`],
/// re-check the stop flag. The acceptor does not poll: it blocks in
/// `accept` until a client or [`Server::shutdown`] wakes it.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// A running server: listener thread, per-connection threads, and the
/// shared [`Engine`].
pub struct Server {
    engine: Arc<Engine>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds the listener, starts the engine and the accept thread.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let engine = Arc::new(Engine::start(cfg.engine)?);
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &engine, &stop, &conns))?
        };

        Ok(Server {
            engine,
            local_addr,
            stop,
            accept_handle: Some(accept_handle),
            conns,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the listener (for stats and tests).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Blocks until the server is asked to stop (used by the foreground
    /// CLI mode, which parks the main thread here).
    pub fn wait(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Graceful shutdown: stop accepting, let in-flight connections
    /// observe the flag and finish, drain the engine queue, join
    /// everything. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            // Wake the acceptor out of its blocking `accept`. A failed
            // connect means it has already left the loop (the listener
            // is closed), so the join below still returns.
            let _ = TcpStream::connect(wake_addr(self.local_addr));
            let _ = handle.join();
        }
        let conns: Vec<JoinHandle<()>> = {
            let mut guard = self
                .conns
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            std::mem::take(&mut *guard)
        };
        for handle in conns {
            let _ = handle.join();
        }
        self.engine.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where [`Server::shutdown`] connects to wake the acceptor: the bound
/// address, with a wildcard IP replaced by the loopback of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        // Re-checked after every accept: the connection that ends the
        // loop is shutdown's wake-up, dropped here without a thread.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let engine = Arc::clone(engine);
                let stop = Arc::clone(stop);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        let _ = handle_conn(&engine, stream, &stop);
                    });
                if let Ok(handle) = spawned {
                    conns
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .push(handle);
                }
            }
            // A client that gave up before being accepted costs the
            // acceptor nothing.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) => {}
            Err(_) => return,
        }
    }
}

fn handle_conn(engine: &Engine, stream: TcpStream, stop: &AtomicBool) -> io::Result<()> {
    // A finite read timeout lets the connection observe the stop flag
    // even while the client is idle.
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    // Each response goes out in one write; without Nagle's algorithm a
    // client pipelining requests never waits for one answer to be
    // acknowledged before the next is sent.
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    serve_stream(engine, stream, writer, Some(stop))
}

/// Drives one byte stream: split lines, enforce the byte cap, answer
/// through the engine. `stop = None` runs to EOF (the `--stdin` mode);
/// with a stop flag, blocked reads poll it and return cleanly.
///
/// Every complete line gets exactly one response line — oversized input
/// and invalid UTF-8 included. Blank lines are skipped (netcat sends a
/// trailing one).
pub fn serve_stream<R: Read, W: Write>(
    engine: &Engine,
    mut reader: R,
    mut writer: W,
    stop: Option<&AtomicBool>,
) -> io::Result<()> {
    // The splitter tolerates a little slack over the cap so the
    // response can state the offending length; memory stays bounded.
    let cap = engine.max_request_bytes();
    let mut buf = [0u8; 8192];
    let mut line: Vec<u8> = Vec::new();
    let mut skipping = false;
    loop {
        if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
            return Ok(());
        }
        let n = match reader.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        for &byte in &buf[..n] {
            if byte == b'\n' {
                if skipping {
                    skipping = false;
                } else {
                    respond_line(engine, &line, &mut writer)?;
                }
                line.clear();
                continue;
            }
            if skipping {
                continue;
            }
            line.push(byte);
            if line.len() > cap {
                write_line(&mut writer, proto::oversized_response(line.len(), cap))?;
                line.clear();
                skipping = true;
            }
        }
    }
}

fn respond_line<W: Write>(engine: &Engine, raw: &[u8], writer: &mut W) -> io::Result<()> {
    let response = match std::str::from_utf8(raw) {
        Err(_) => proto::invalid_utf8_response(),
        Ok(text) => {
            let text = text.trim();
            if text.is_empty() {
                return Ok(());
            }
            engine.handle(text)
        }
    };
    write_line(writer, response)
}

/// Writes one response line — the response and its `\n` — with a single
/// `write_all`, so a socket sends the whole line as one segment instead
/// of holding a trailing newline until the client acknowledges.
fn write_line<W: Write>(writer: &mut W, response: String) -> io::Result<()> {
    let mut line = response.into_bytes();
    line.push(b'\n');
    writer.write_all(&line)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::start(EngineConfig {
            workers: 2,
            queue_cap: 32,
            memo_cap: 16,
            max_request_bytes: 1024,
        })
        .unwrap()
    }

    #[test]
    fn stream_mode_answers_line_per_line() {
        let e = engine();
        let input = b"{\"op\":\"ping\",\"id\":1}\n\n{\"op\":\"ping\",\"id\":2}\n";
        let mut out = Vec::new();
        serve_stream(&e, &input[..], &mut out, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"id\":1"));
        assert!(lines[1].contains("\"id\":2"));
        e.shutdown();
    }

    #[test]
    fn oversized_line_is_answered_and_connection_survives() {
        let e = engine();
        let mut input = vec![b'x'; 5000];
        input.push(b'\n');
        input.extend_from_slice(b"{\"op\":\"ping\",\"id\":\"after\"}\n");
        let mut out = Vec::new();
        serve_stream(&e, &input[..], &mut out, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"oversized\""), "{text}");
        assert!(lines[1].contains("\"after\""), "{text}");
        e.shutdown();
    }

    #[test]
    fn invalid_utf8_gets_parse_error() {
        let e = engine();
        let input = [0xFFu8, 0xFE, b'\n'];
        let mut out = Vec::new();
        serve_stream(&e, &input[..], &mut out, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("not valid UTF-8"), "{text}");
        e.shutdown();
    }

    /// A `Write` that records how many `write` calls each response line
    /// took.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_line_is_one_write() {
        let e = engine();
        let mut input = b"{\"op\":\"ping\",\"id\":1}\n".to_vec();
        input.extend_from_slice(&[b'x'; 5000]);
        input.push(b'\n');
        input.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        let mut out = CountingWriter::default();
        serve_stream(&e, &input[..], &mut out, None).unwrap();
        let text = String::from_utf8(out.bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"pong\":true"), "{text}");
        assert!(lines[1].contains("\"oversized\""), "{text}");
        assert!(lines[2].contains("not valid UTF-8"), "{text}");
        assert_eq!(out.writes, 3, "one write per response line: {text}");
        e.shutdown();
    }

    fn small_server(addr: &str) -> Server {
        Server::start(ServerConfig {
            addr: addr.to_string(),
            engine: EngineConfig {
                workers: 2,
                queue_cap: 32,
                memo_cap: 16,
                max_request_bytes: 4096,
            },
        })
        .unwrap()
    }

    /// Shuts `server` down and asserts the blocking acceptor did not hang
    /// it.
    fn shutdown_promptly(mut server: Server) {
        let start = std::time::Instant::now();
        server.shutdown();
        let took = start.elapsed();
        assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    }

    fn read_line(conn: &mut TcpStream) -> String {
        let mut resp = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            conn.read_exact(&mut byte).unwrap();
            if byte[0] == b'\n' {
                break;
            }
            resp.push(byte[0]);
        }
        String::from_utf8(resp).unwrap()
    }

    #[test]
    fn shutdown_wakes_an_idle_acceptor() {
        shutdown_promptly(small_server("127.0.0.1:0"));
    }

    #[test]
    fn shutdown_wakes_an_acceptor_bound_to_the_wildcard() {
        let server = small_server("0.0.0.0:0");
        assert!(server.local_addr().ip().is_unspecified());
        shutdown_promptly(server);
    }

    #[test]
    fn shutdown_with_an_idle_client_connected() {
        let server = small_server("127.0.0.1:0");
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // Make sure the connection has its own thread before shutdown.
        conn.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        assert!(read_line(&mut conn).contains("\"pong\":true"));
        shutdown_promptly(server);
        let mut rest = Vec::new();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(conn.read_to_end(&mut rest).unwrap(), 0, "server closed");
    }

    #[test]
    fn client_connecting_right_after_start_is_answered() {
        for round in 0..5 {
            let server = small_server("127.0.0.1:0");
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            conn.write_all(format!("{{\"op\":\"ping\",\"id\":{round}}}\n").as_bytes())
                .unwrap();
            let resp = read_line(&mut conn);
            assert!(resp.contains("\"pong\":true"), "{resp}");
            assert!(resp.contains(&format!("\"id\":{round}")), "{resp}");
            drop(conn);
            shutdown_promptly(server);
        }
    }

    #[test]
    fn wake_addr_maps_wildcards_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:7188".parse().unwrap();
        let v6: SocketAddr = "[::]:7188".parse().unwrap();
        let bound: SocketAddr = "127.0.0.1:7188".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7188".parse().unwrap());
        assert_eq!(wake_addr(v6), "[::1]:7188".parse().unwrap());
        assert_eq!(wake_addr(bound), bound);
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let mut server = small_server("127.0.0.1:0");
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"{\"op\":\"ping\",\"id\":\"tcp\"}\n")
            .unwrap();
        let resp = read_line(&mut conn);
        assert!(resp.contains("\"pong\":true"), "{resp}");
        drop(conn);
        server.shutdown();
        assert!(server.engine().stats().served >= 1);
    }
}
