//! Live introspection endpoint: a std-only `TcpListener` serving the
//! observability surfaces over HTTP/1.0.
//!
//! Routes:
//! - `/metrics` — Prometheus/OpenMetrics text exposition ([`crate::expo`])
//! - `/traces`  — retained [`crate::trace::QueryTrace`]s as JSONL
//! - `/report`  — the human-readable pipeline report ([`crate::report`])
//!
//! Nothing listens until [`serve`] is called. The handler thread takes
//! registry/collector snapshots per request and holds no lock across
//! socket I/O.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running introspection server; dropping it stops the accept loop.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        if let Ok(conn) = TcpStream::connect(self.addr) {
            drop(conn);
        }
        if let Some(join) = self.join.take() {
            drop(join.join());
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves the introspection
/// routes on a background thread until the handle drops.
///
/// # Errors
/// Returns the bind error if the address is unavailable.
pub fn serve(addr: &str) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop_flag.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => handle_connection(stream),
                Err(_) => crate::counter("obs.serve.accept_errors").inc(),
            }
        }
    });
    Ok(ServeHandle {
        addr: local,
        stop,
        join: Some(join),
    })
}

/// Routes a request path to `(status line, content type, body)`.
fn respond(path: &str) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            crate::expo::render(&crate::global().snapshot()),
        ),
        "/traces" => ("200 OK", "application/jsonl", crate::trace::to_jsonl()),
        "/report" => (
            "200 OK",
            "text/plain",
            crate::report::render(&crate::global().snapshot()),
        ),
        _ => (
            "404 Not Found",
            "text/plain",
            "unknown route; try /metrics, /traces, /report\n".to_string(),
        ),
    }
}

fn handle_connection(mut stream: TcpStream) {
    crate::counter("obs.serve.requests").inc();
    drop(stream.set_read_timeout(Some(Duration::from_millis(500))));
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap_or(0);
    if n == 0 {
        // Shutdown wake-up or an empty probe: nothing to answer.
        return;
    }
    let request = String::from_utf8_lossy(buf.get(..n).unwrap_or_default());
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = respond(path);
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if stream.write_all(header.as_bytes()).is_err() || stream.write_all(body.as_bytes()).is_err() {
        crate::counter("obs.serve.write_errors").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .expect("send request");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read response");
        body
    }

    #[test]
    fn endpoint_serves_metrics_traces_and_report() {
        crate::counter("t.serve.probe").inc();
        let handle = serve("127.0.0.1:0").expect("bind");
        let addr = handle.addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"));
        let body = metrics.split("\r\n\r\n").nth(1).expect("body");
        crate::expo::parse(body).expect("/metrics parses as exposition");
        assert!(body.contains("mqa_t_serve_probe_total"));

        let report = get(addr, "/report");
        assert!(report.contains("200 OK"));

        let traces = get(addr, "/traces");
        assert!(traces.starts_with("HTTP/1.0 200 OK"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));

        assert!(crate::counter("obs.serve.requests").get() >= 4);
        handle.stop();
    }
}
