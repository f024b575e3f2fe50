//! `POST /api/run` checks the session before it splits the body into
//! stdin lines, so an unauthenticated body costs no heap. The binary
//! counts live heap bytes with its own global allocator, so it holds one
//! test: nothing else allocates beside the measured request.

use ccp_core::{Portal, PortalConfig};
use cluster::ClusterSpec;
use httpd::json::Json;
use httpd::{Method, Request, Status};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use webportal::app::dispatch;
use webportal::{build_router, App};

/// Heap bytes live now, and the most live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes.
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (so from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` meet `realloc`'s contract,
        // as the caller guarantees.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 4 MiB of newlines: one `String` per line would be about 100 MiB.
const BODY_BYTES: usize = 4 << 20;
/// What answering 401 may cost, far below splitting the body.
const HEAP_LIMIT: usize = 8 << 20;

#[test]
fn run_checks_the_session_before_it_splits_the_body() {
    let mut portal = Portal::new(PortalConfig {
        cluster: ClusterSpec::small(1, 1),
        checker_threads: Some(1),
        ..PortalConfig::default()
    });
    portal.bootstrap_admin("admin", "super-secret9").unwrap();
    let app = App::new(portal);
    let router = build_router(Arc::clone(&app));
    let login = dispatch(
        &router,
        Method::Post,
        "/api/login",
        br#"{"user":"admin","password":"super-secret9"}"#,
        None,
    );
    let json = |body: &str| Json::parse(body).expect("JSON response");
    let token = json(login.body_str())
        .get("token")
        .and_then(Json::as_str)
        .expect("login returns a token")
        .to_string();
    let saved = dispatch(
        &router,
        Method::Post,
        "/api/file?path=echo.mini",
        b"fn main() { println(read_line()); println(read_line()); println(read_line()); }",
        Some(&token),
    );
    assert_eq!(saved.status, Status::CREATED, "{}", saved.body_str());
    let compiled = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=echo.mini",
        b"",
        Some(&token),
    );
    let artifact = json(compiled.body_str())
        .get("artifact")
        .and_then(Json::as_str)
        .expect("compile returns an artifact")
        .to_string();
    let path = format!("/api/run?artifact={artifact}");

    // The request is built before the measurement: only the route counts.
    let mut bogus = Request::synthetic(Method::Post, &path, &vec![b'\n'; BODY_BYTES])
        .with_header("cookie", "sid=bogus");
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let resp = router.dispatch(&mut bogus);
    let cost = PEAK.load(Ordering::SeqCst) - before;
    assert_eq!(resp.status, Status::UNAUTHORIZED, "{}", resp.body_str());
    assert!(
        cost < HEAP_LIMIT,
        "a 401 for a {BODY_BYTES}-byte body peaked at {cost} heap bytes"
    );

    // A valid session's lines still reach read_line(), in order.
    let resp = dispatch(
        &router,
        Method::Post,
        &path,
        b"first\nsecond\nthird",
        Some(&token),
    );
    assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
    assert_eq!(
        json(resp.body_str()).get("stdout").and_then(Json::as_str),
        Some("first\nsecond\nthird\n")
    );
}
