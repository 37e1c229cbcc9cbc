//! The `rbqa-serve --listen` child process and the closed-loop TCP load.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use crate::workload::{ExecConfig, Request, Stream, Workload};

/// Client connections and server workers: the closed loop runs one
/// synchronous session per connection, at most one per server worker.
pub const CONNECTIONS: usize = 2;
pub const WORKERS: usize = 2;

const IO_TIMEOUT: Option<Duration> = Some(Duration::from_secs(60));

/// A running `rbqa-serve --listen` child. Dropping it kills and reaps the
/// process, so no exit path leaves it running.
pub struct Server {
    child: Child,
    pub addr: String,
    stderr: Option<thread::JoinHandle<()>>,
}

impl Server {
    pub fn spawn(bin: &Path, cache_bytes: Option<u64>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .arg("--allow-remote-shutdown")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(bytes) = cache_bytes {
            cmd.args(["--cache-bytes", &bytes.to_string()]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("rbqa-serve: listening on ") {
                        break addr.trim().to_owned();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("rbqa-serve exited before listening".to_owned());
                }
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        let stderr = thread::spawn(move || for _ in lines.by_ref() {});
        Ok(Server {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// Peak resident set (`VmHWM`) of the server process, in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Stops the server with the `shutdown` verb and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(&self.addr)?;
        conn.roundtrip("shutdown\n")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                _ => return Err("rbqa-serve did not exit after shutdown".to_owned()),
            }
        }
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
    }
}

/// One rbqa/1 session over TCP. Each request is written with a single
/// `write` so the round trip is not split across segments.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    exec: ExecConfig,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // Bounded waits: a wedged server fails the run instead of hanging it.
        for timeout in [
            stream.set_read_timeout(IO_TIMEOUT),
            stream.set_write_timeout(IO_TIMEOUT),
        ] {
            timeout.map_err(|e| e.to_string())?;
        }
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Conn {
            writer: stream,
            reader,
            exec: ExecConfig::DEFAULT,
            line: String::new(),
        };
        conn.send("rbqa/1\n")?;
        Ok(conn)
    }

    fn send(&mut self, payload: &str) -> Result<(), String> {
        self.writer
            .write_all(payload.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok(self.line.trim_end().to_owned()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Writes `payload` (ending in one request line) and reads its reply.
    pub fn roundtrip(&mut self, payload: &str) -> Result<String, String> {
        self.send(payload)?;
        self.read_line()
    }

    /// Sends directives (which answer nothing on success) and a `ping`
    /// barrier; any line before the pong is a directive error.
    pub fn directives(&mut self, text: &str) -> Result<(), String> {
        self.send(text)?;
        let reply = self.roundtrip("ping\n")?;
        if reply.contains("\"pong\":true") {
            Ok(())
        } else {
            Err(format!("directive rejected: {reply}"))
        }
    }

    /// The payload for one request: `option` lines when the session's exec
    /// configuration must change, then the request line.
    pub fn payload(&mut self, workload: &Workload, request: &Request) -> String {
        let key = &workload.keys[request.key];
        let mut payload = String::new();
        if key.verb == crate::workload::Verb::Execute && key.exec != self.exec {
            payload.push_str(&key.exec.option_lines());
            self.exec = key.exec;
        }
        payload.push_str(&workload.request_line(request));
        payload.push('\n');
        payload
    }

    /// Drains anything left unread (used before closing).
    pub fn close(self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        let mut rest = Vec::new();
        let mut reader = self.reader;
        let _ = reader.read_to_end(&mut rest);
    }
}

/// One completed (or failed) request of the timed phase.
pub struct Sample {
    pub request: Request,
    pub rtt_us: f64,
    /// The response line, or the transport error.
    pub reply: Result<String, String>,
}

/// The outcome of one set-up: the server, its open sessions and how long
/// set-up took.
pub struct Ready {
    pub server: Server,
    pub conns: Vec<Conn>,
    pub setup_s: f64,
    /// The part of `setup_s` until the server was listening.
    pub spawn_s: f64,
    /// Warm-up replies that were not `ok`.
    pub warmup_errors: Vec<String>,
}

/// Spawns a server, registers every catalog on every connection (each
/// session has a private catalog namespace) and sends the warm-up
/// requests, split over the connections.
pub fn set_up(bin: &Path, workload: &Workload, directives: &str) -> Result<Ready, String> {
    let started = Instant::now();
    let server = Server::spawn(bin, workload.cache_bytes)?;
    let spawn_s = started.elapsed().as_secs_f64();
    let conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::connect(&server.addr))
        .collect::<Result<_, _>>()?;
    let results: Vec<Result<(Conn, Vec<String>), String>> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    conn.directives(directives)?;
                    let mut errors = Vec::new();
                    for request in workload.warmup.iter().skip(c).step_by(CONNECTIONS) {
                        let payload = conn.payload(workload, request);
                        let reply = conn.roundtrip(&payload)?;
                        if !reply.contains("\"status\":\"ok\"") {
                            errors.push(reply);
                        }
                    }
                    Ok((conn, errors))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let mut conns = Vec::new();
    let mut warmup_errors = Vec::new();
    for result in results {
        let (conn, errors) = result?;
        conns.push(conn);
        warmup_errors.extend(errors);
    }
    Ok(Ready {
        server,
        conns,
        setup_s: started.elapsed().as_secs_f64(),
        spawn_s,
        warmup_errors,
    })
}

/// The closed loop: connection `c` sends the next requests of
/// `streams[c]`, one at a time, until `seconds` have passed. Returns the
/// connections, the samples of every connection and the wall time.
pub fn timed_phase(
    workload: &Workload,
    conns: Vec<Conn>,
    streams: &mut [Stream<'_>],
    seconds: f64,
) -> (Vec<Conn>, Vec<Sample>, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let results: Vec<(Conn, Vec<Sample>)> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(streams.iter_mut())
            .map(|(mut conn, stream)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let request = stream.next().expect("streams are endless");
                        let payload = conn.payload(workload, &request);
                        let sent = Instant::now();
                        let reply = conn.roundtrip(&payload);
                        let rtt_us = sent.elapsed().as_secs_f64() * 1e6;
                        let failed = reply.is_err();
                        samples.push(Sample {
                            request,
                            rtt_us,
                            reply,
                        });
                        if failed {
                            break;
                        }
                    }
                    (conn, samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let (conns, samples): (Vec<Conn>, Vec<Vec<Sample>>) = results.into_iter().unzip();
    (conns, samples.into_iter().flatten().collect(), elapsed)
}
