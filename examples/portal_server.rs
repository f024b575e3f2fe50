//! Serve the portal over real HTTP and drive it with a real client — the
//! closest thing to pointing a 2013 lab browser at grid.uhd.edu.
//!
//! Run with: `cargo run --example portal_server`
//! (binds 127.0.0.1:0 and exercises the API against itself; pass a port
//! number to keep it running for manual browsing, e.g. `-- 8080`.)
//!
//! Set `CCP_DATA_DIR=/some/dir` to boot durable: portal state persists to
//! write-ahead logs under the directory and survives a kill/restart (the
//! recovery report shows up in `/api/health`).

use ccp_core::{Portal, PortalConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use webportal::App;

fn http(addr: std::net::SocketAddr, raw: String) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("receive");
    out
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

fn main() {
    let mut config = PortalConfig::default();
    if let Ok(dir) = std::env::var("CCP_DATA_DIR") {
        config.data_dir = Some(dir.into());
    }
    let mut portal = Portal::new(config);
    if let Some(r) = portal.recovery_report() {
        println!(
            "recovered portal log: {} records replayed in {}us (snapshot: {:?})",
            r.records_replayed, r.wall_us, r.snapshot_lsn
        );
    }
    if let Some(e) = portal.wal_error() {
        eprintln!("durability degraded: {e}");
    }
    portal
        .bootstrap_admin("admin", "change-me-please")
        .expect("bootstrap");
    let app = App::new(portal);
    let handle = webportal::serve(Arc::clone(&app), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    println!("portal serving on http://{addr}/");

    // Log in over the wire.
    let creds = r#"{"user":"admin","password":"change-me-please"}"#;
    let login = http(
        addr,
        format!(
            "POST /api/login HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{creds}",
            creds.len()
        ),
    );
    let token = body_of(&login)
        .split("\"token\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("token in response")
        .to_string();
    println!("logged in; token {}…", &token[..8]);

    // Create a student, then act as them.
    let body = r#"{"name":"demo","password":"demo-pass-99","role":"student"}"#;
    http(
        addr,
        format!(
            "POST /api/admin/users HTTP/1.1\r\nHost: {addr}\r\nCookie: sid={token}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    let creds = r#"{"user":"demo","password":"demo-pass-99"}"#;
    let login = http(
        addr,
        format!(
            "POST /api/login HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{creds}",
            creds.len()
        ),
    );
    let demo = body_of(&login)
        .split("\"token\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("token")
        .to_string();

    // Upload, compile and run a program — all over HTTP.
    let program = r#"fn main() { println("hello from the cluster, over HTTP"); }"#;
    http(
        addr,
        format!(
            "POST /api/file?path=web.mini HTTP/1.1\r\nHost: {addr}\r\nCookie: sid={demo}\r\nContent-Length: {}\r\n\r\n{program}",
            program.len()
        ),
    );
    let compiled = http(
        addr,
        format!("POST /api/compile?path=web.mini HTTP/1.1\r\nHost: {addr}\r\nCookie: sid={demo}\r\nContent-Length: 0\r\n\r\n"),
    );
    let artifact = body_of(&compiled)
        .split("\"artifact\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("artifact id")
        .to_string();
    println!("compiled to artifact {artifact}");
    let run = http(
        addr,
        format!("POST /api/run?artifact={artifact} HTTP/1.1\r\nHost: {addr}\r\nCookie: sid={demo}\r\nContent-Length: 0\r\n\r\n"),
    );
    println!("run response: {}", body_of(&run));

    // The HTML dashboard.
    let home = http(addr, format!("GET / HTTP/1.1\r\nHost: {addr}\r\n\r\n"));
    let title_line = home.lines().find(|l| l.contains("<title>")).unwrap_or("");
    println!("dashboard served: {title_line}");
    println!("requests served: {}", handle.served());

    // Optionally keep serving for manual exploration.
    if let Some(port) = std::env::args().nth(1) {
        println!("(re-binding on 127.0.0.1:{port} for manual browsing; Ctrl-C to stop)");
        let handle2 =
            webportal::serve(app, &format!("127.0.0.1:{port}")).expect("bind manual port");
        println!("open http://{}/", handle2.addr());
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    handle.shutdown();
    // Group commit may still hold a few appends in memory; force them out
    // so a durable run loses nothing at clean shutdown.
    if let Err(e) = app.write(|p| p.flush_wal()) {
        eprintln!("final WAL flush failed: {e}");
    }
    println!("server stopped cleanly");
}
