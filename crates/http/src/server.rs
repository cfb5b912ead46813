//! The HTTP server: a fixed set of worker threads, each accepting and
//! serving its own connections on a shared listening socket.
//!
//! There is no accept thread and no hand-off queue: every worker blocks in
//! `accept` on its own clone of the listener, so a connection is served by
//! the thread the kernel woke for it. Shutdown sets a flag and opens one
//! throwaway connection per worker; a worker exits on its first accept
//! after the flag is set, after finishing any response it is writing.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::middleware::Handler;
use crate::request::parse_request;
use crate::response::{Response, Status};

/// A running HTTP server.
pub struct HttpServer {
    handle: ServerHandle,
    workers: Vec<JoinHandle<()>>,
}

/// Cheap handle for querying/stopping a server from elsewhere.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: usize,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown (idempotent). Workers finish the response they are
    /// writing, then exit; this does not wait for them.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // One throwaway connection per worker: each worker exits on the
        // first connection it accepts after the flag is set, so every
        // worker — idle or busy — finds one waiting.
        for _ in 0..self.workers {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `handler` —
    /// a bare [`crate::Router`] or a middleware [`crate::Stack`] — with
    /// `workers` threads, each accepting its own connections.
    pub fn start(
        addr: &str,
        handler: impl Handler + 'static,
        workers: usize,
    ) -> std::io::Result<HttpServer> {
        assert!(workers >= 1, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let handle = ServerHandle {
            addr: listener.local_addr()?,
            shutdown: Arc::new(AtomicBool::new(false)),
            workers,
        };
        let handler: Arc<dyn Handler> = Arc::new(handler);
        // Clone the listener for every worker up front, so a failed clone
        // surfaces as an error before any thread runs.
        let mut listeners = Vec::with_capacity(workers);
        for _ in 1..workers {
            listeners.push(listener.try_clone()?);
        }
        listeners.push(listener);
        let mut server = HttpServer {
            handle,
            workers: Vec::with_capacity(workers),
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let handler = Arc::clone(&handler);
            let shutdown = Arc::clone(&server.handle.shutdown);
            server.workers.push(
                std::thread::Builder::new()
                    .name(format!("qr2-http-{i}"))
                    .spawn(move || serve(&listener, handler.as_ref(), &shutdown))
                    // qr2-allow: panic-path thread spawn at server start, before any request is accepted
                    .expect("spawn worker"),
            );
        }
        Ok(server)
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// A cloneable control handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Stop accepting, let every worker finish its current response, and
    /// join all threads.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.handle.stop();
        // Join the workers so tests can't leak threads.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One worker: accept a connection, serve it, repeat until shutdown.
fn serve(listener: &TcpListener, handler: &dyn Handler, shutdown: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if let Ok((stream, _)) = accepted {
            handle_connection(&stream, handler);
        }
    }
}

fn handle_connection(stream: &TcpStream, handler: &dyn Handler) {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    let mut response = match parse_request(&mut reader) {
        Ok(req) => {
            // Panics in handlers must not take the worker down (a
            // [`crate::CatchPanic`] layer, when present, turns them into
            // structured 500s before they reach this backstop).
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler.handle(&req)));
            let mut response = result
                .unwrap_or_else(|_| Response::error(Status::InternalError, "handler panicked"));
            // RFC 9110: no body on HEAD responses. The router strips its
            // own; this covers responses generated above it (panic 500s,
            // middleware rejections).
            if req.method == crate::request::Method::Head && !response.body.is_empty() {
                if response.header("Content-Length").is_none() && !response.body.is_stream() {
                    let len = response.body.len();
                    response = response.with_header("Content-Length", len.to_string());
                }
                response.body.clear();
            }
            response
        }
        Err(e) => Response::error(Status::BadRequest, &e.to_string()),
    };
    // Streaming bodies are pulled from their producer inside `write_to`,
    // one flush per chunk — a slow producer streams to the client instead
    // of buffering server-side. A write error means the client went away;
    // the producer is dropped with the response.
    let _ = response.write_to(&mut writer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::request::Method;
    use crate::router::Router;
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    fn test_server() -> HttpServer {
        let router = Router::new()
            .route(Method::Get, "/ping", |_, _| {
                Response::ok_json(&Json::from("pong"))
            })
            .route(Method::Post, "/echo", |req, _| {
                Response::ok_json(&Json::from(req.body_str().unwrap_or("")))
            })
            .route(Method::Get, "/boom", |_, _| panic!("kaboom"));
        HttpServer::start("127.0.0.1:0", router, 2).expect("server starts")
    }

    fn raw_request(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_requests() {
        let server = test_server();
        let resp = raw_request(server.addr(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.ends_with("\"pong\""));
        server.stop();
    }

    #[test]
    fn serves_concurrent_requests() {
        let server = test_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || raw_request(addr, "GET /ping HTTP/1.1\r\n\r\n")))
            .collect();
        for h in handles {
            assert!(h.join().unwrap().contains("pong"));
        }
        server.stop();
    }

    #[test]
    fn post_body_echo() {
        let server = test_server();
        let resp = raw_request(
            server.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert!(resp.ends_with("\"hello\""), "{resp}");
        server.stop();
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = test_server();
        let resp = raw_request(server.addr(), "BLARGH\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        server.stop();
    }

    #[test]
    fn head_panic_response_has_no_body() {
        let server = test_server();
        let resp = raw_request(server.addr(), "HEAD /boom HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).unwrap_or("");
        assert!(body.is_empty(), "HEAD must not carry a body: {resp}");
        server.stop();
    }

    #[test]
    fn handler_panic_gets_500_and_server_survives() {
        let server = test_server();
        let resp = raw_request(server.addr(), "GET /boom HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
        // Server still works afterwards.
        let resp = raw_request(server.addr(), "GET /ping HTTP/1.1\r\n\r\n");
        assert!(resp.contains("pong"));
        server.stop();
    }

    #[test]
    fn unknown_route_404() {
        let server = test_server();
        let resp = raw_request(server.addr(), "GET /nope HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"));
        server.stop();
    }

    #[test]
    fn stop_is_clean_and_idempotent() {
        let server = test_server();
        let handle = server.handle();
        handle.stop();
        handle.stop();
        server.stop();
    }

    /// Poll until every worker thread has exited, or fail after 10 s.
    fn wait_for_workers(server: &HttpServer) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.workers.iter().all(JoinHandle::is_finished) {
            assert!(Instant::now() < deadline, "workers still running");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn stop_joins_four_idle_workers_within_a_bounded_wait() {
        let router = Router::new().route(Method::Get, "/ping", |_, _| {
            Response::ok_json(&Json::from("pong"))
        });
        let server = HttpServer::start("127.0.0.1:0", router, 4).unwrap();
        assert_eq!(server.workers.len(), 4);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("stop() joined every worker");
    }

    #[test]
    fn handle_stop_twice_from_another_thread_stops_every_worker() {
        let server = test_server();
        let handle = server.handle();
        std::thread::spawn(move || {
            handle.stop();
            handle.stop();
        })
        .join()
        .unwrap();
        wait_for_workers(&server);
        // With every worker gone the listening socket is closed.
        assert!(TcpStream::connect(server.addr()).is_err());
        server.stop();
    }

    #[test]
    fn stop_waits_for_a_response_in_flight() {
        const CHUNKS: usize = 5;
        let finished = Arc::new(AtomicBool::new(false));
        let producer_done = Arc::clone(&finished);
        let router = Router::new().route(Method::Get, "/slow", move |_, _| {
            let done = Arc::clone(&producer_done);
            let mut n = 0;
            Response::stream(
                "text/plain",
                crate::ChunkStream::new(move || {
                    n += 1;
                    if n > CHUNKS {
                        done.store(true, Ordering::SeqCst);
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(40));
                    Some(format!("part{n}\n").into_bytes())
                }),
            )
        });
        let server = HttpServer::start("127.0.0.1:0", router, 2).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
        // Wait until the first chunk is on the wire: the worker is now
        // mid-response.
        let mut first = [0u8; 64];
        let n = client.read(&mut first).unwrap();
        assert!(n > 0);

        server.stop();
        assert!(
            finished.load(Ordering::SeqCst),
            "stop() returned before the in-flight response ended"
        );
        let mut rest = String::new();
        client.read_to_string(&mut rest).unwrap();
        let body = format!("{}{rest}", String::from_utf8_lossy(&first[..n]));
        assert!(body.contains(&format!("part{CHUNKS}")), "{body}");
        assert!(body.ends_with("0\r\n\r\n"), "{body}");
    }

    /// Send `raw` and read whatever answer arrives. The server may reset
    /// the connection after answering a request it stopped reading.
    fn lossy_request(addr: SocketAddr, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(raw);
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n) = s.read(&mut buf) {
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn oversized_request_heads_get_400_and_the_server_keeps_serving() {
        let server = test_server();
        let long_header = format!(
            "GET /ping HTTP/1.1\r\nX-Long: {}\r\n\r\n",
            "a".repeat(70 << 10)
        );
        let many_headers = format!(
            "GET /ping HTTP/1.1\r\n{}\r\n",
            (0..101)
                .map(|i| format!("X-H{i}: v\r\n"))
                .collect::<String>()
        );
        for raw in [long_header, many_headers] {
            let resp = lossy_request(server.addr(), raw.as_bytes());
            assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
            assert!(resp.contains("\"error\":{"), "problem envelope: {resp}");
        }
        // 100 headers is still within bounds.
        let hundred = format!(
            "GET /ping HTTP/1.1\r\n{}\r\n",
            (0..100)
                .map(|i| format!("X-H{i}: v\r\n"))
                .collect::<String>()
        );
        let resp = raw_request(server.addr(), &hundred);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let resp = raw_request(server.addr(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        server.stop();
    }
}
