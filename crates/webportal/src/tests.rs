//! In-process HTTP tests: synthetic requests through the full route table.

use crate::app::{build_router, dispatch, App};
use auth::Role;
use ccp_core::{Portal, PortalConfig};
use cluster::ClusterSpec;
use httpd::json::Json;
use httpd::{Method, Response, Router, Status};
use std::sync::Arc;

fn test_app() -> (Arc<App>, Router) {
    let config = PortalConfig {
        cluster: ClusterSpec::small(2, 2),
        ..PortalConfig::default()
    };
    let mut portal = Portal::new(config);
    portal.bootstrap_admin("admin", "super-secret9").unwrap();
    let app = App::new(portal);
    let router = build_router(Arc::clone(&app));
    (app, router)
}

fn login(router: &Router, user: &str, password: &str) -> String {
    let body = format!(r#"{{"user":"{user}","password":"{password}"}}"#);
    let resp = dispatch(router, Method::Post, "/api/login", body.as_bytes(), None);
    assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
    Json::parse(resp.body_str())
        .unwrap()
        .get("token")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

fn make_student(app: &Arc<App>, router: &Router, name: &str) -> String {
    let admin = login(router, "admin", "super-secret9");
    let body = format!(r#"{{"name":"{name}","password":"password99","role":"student"}}"#);
    let resp = dispatch(
        router,
        Method::Post,
        "/api/admin/users",
        body.as_bytes(),
        Some(&admin),
    );
    assert_eq!(resp.status, Status::CREATED, "{}", resp.body_str());
    let _ = app;
    login(router, name, "password99")
}

fn json_of(resp: &Response) -> Json {
    Json::parse(resp.body_str()).unwrap_or(Json::Null)
}

#[test]
fn login_issues_cookie_and_token() {
    let (_, router) = test_app();
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/login",
        br#"{"user":"admin","password":"super-secret9"}"#,
        None,
    );
    assert_eq!(resp.status, Status::OK);
    assert!(resp.header("set-cookie").unwrap().starts_with("sid="));
    assert!(json_of(&resp).get("token").is_some());
}

#[test]
fn bad_credentials_401() {
    let (_, router) = test_app();
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/login",
        br#"{"user":"admin","password":"nope-nope"}"#,
        None,
    );
    assert_eq!(resp.status, Status::UNAUTHORIZED);
}

#[test]
fn missing_session_401() {
    let (_, router) = test_app();
    for path in ["/api/whoami", "/api/files", "/api/quota", "/api/jobs"] {
        let resp = dispatch(&router, Method::Get, path, b"", None);
        assert_eq!(resp.status, Status::UNAUTHORIZED, "{path}");
    }
}

#[test]
fn whoami_reports_role() {
    let (_, router) = test_app();
    let tok = login(&router, "admin", "super-secret9");
    let resp = dispatch(&router, Method::Get, "/api/whoami", b"", Some(&tok));
    let j = json_of(&resp);
    assert_eq!(j.get("user").unwrap().as_str(), Some("admin"));
    assert_eq!(j.get("role").unwrap().as_str(), Some("admin"));
}

#[test]
fn logout_invalidates_session() {
    let (_, router) = test_app();
    let tok = login(&router, "admin", "super-secret9");
    dispatch(&router, Method::Post, "/api/logout", b"", Some(&tok));
    let resp = dispatch(&router, Method::Get, "/api/whoami", b"", Some(&tok));
    assert_eq!(resp.status, Status::UNAUTHORIZED);
}

#[test]
fn student_cannot_create_users() {
    let (app, router) = test_app();
    let student = make_student(&app, &router, "alice");
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/admin/users",
        br#"{"name":"eve","password":"password99"}"#,
        Some(&student),
    );
    assert_eq!(resp.status, Status::FORBIDDEN);
}

#[test]
fn file_upload_download_listing() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/file?path=hello.txt",
        b"contents!",
        Some(&tok),
    );
    assert_eq!(resp.status, Status::CREATED);
    let resp = dispatch(
        &router,
        Method::Get,
        "/api/file?path=hello.txt",
        b"",
        Some(&tok),
    );
    assert_eq!(resp.body, b"contents!");
    let resp = dispatch(&router, Method::Get, "/api/files", b"", Some(&tok));
    let rows = json_of(&resp);
    let arr = rows.as_arr().unwrap();
    assert_eq!(arr.len(), 1);
    assert_eq!(arr[0].get("name").unwrap().as_str(), Some("hello.txt"));
    assert_eq!(arr[0].get("size").unwrap().as_num(), Some(9.0));
}

#[test]
fn file_operations_mv_cp_rm_mkdir() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/mkdir?path=src",
        b"",
        Some(&tok),
    );
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=src/a.txt",
        b"A",
        Some(&tok),
    );
    let r = dispatch(
        &router,
        Method::Post,
        "/api/cp?from=src/a.txt&to=src/b.txt",
        b"",
        Some(&tok),
    );
    assert_eq!(r.status, Status::OK, "{}", r.body_str());
    let r = dispatch(
        &router,
        Method::Post,
        "/api/mv?from=src/b.txt&to=c.txt",
        b"",
        Some(&tok),
    );
    assert_eq!(r.status, Status::OK);
    let r = dispatch(&router, Method::Post, "/api/rm?path=src", b"", Some(&tok));
    assert_eq!(r.status, Status::OK);
    let resp = dispatch(
        &router,
        Method::Get,
        "/api/file?path=c.txt",
        b"",
        Some(&tok),
    );
    assert_eq!(resp.body, b"A");
}

#[test]
fn reading_missing_file_404() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    let resp = dispatch(
        &router,
        Method::Get,
        "/api/file?path=ghost.txt",
        b"",
        Some(&tok),
    );
    assert_eq!(resp.status, Status::NOT_FOUND);
}

#[test]
fn escape_attempt_403() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    let resp = dispatch(
        &router,
        Method::Get,
        "/api/file?path=%2Fhome%2Fadmin%2Fx",
        b"",
        Some(&tok),
    );
    assert_eq!(resp.status, Status::FORBIDDEN);
}

#[test]
fn compile_and_run_through_api() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=p.mini",
        b"fn main() { println(\"web run\"); }",
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=p.mini",
        b"",
        Some(&tok),
    );
    assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
    let artifact = json_of(&resp)
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let resp = dispatch(
        &router,
        Method::Post,
        &format!("/api/run?artifact={artifact}"),
        b"",
        Some(&tok),
    );
    let j = json_of(&resp);
    assert_eq!(j.get("success").unwrap().as_bool(), Some(true));
    assert_eq!(j.get("stdout").unwrap().as_str(), Some("web run\n"));
}

#[test]
fn compile_failure_returns_diagnostics() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=bad.mini",
        b"fn main() { oops",
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=bad.mini",
        b"",
        Some(&tok),
    );
    assert_eq!(resp.status, Status::BAD_REQUEST);
    let j = json_of(&resp);
    assert_eq!(j.get("success").unwrap().as_bool(), Some(false));
    assert!(!j.get("diagnostics").unwrap().as_arr().unwrap().is_empty());
}

#[test]
fn job_submission_and_monitoring() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=j.mini",
        b"fn main() { println(\"batch\"); }",
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=j.mini",
        b"",
        Some(&tok),
    );
    let artifact = json_of(&resp)
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let body = format!(r#"{{"artifact":"{artifact}","cores":1,"estimated_ticks":3}}"#);
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/jobs",
        body.as_bytes(),
        Some(&tok),
    );
    assert_eq!(resp.status, Status::CREATED);
    let id = json_of(&resp).get("job").unwrap().as_num().unwrap() as u64;
    // Pump the distributor.
    for _ in 0..10 {
        dispatch(&router, Method::Post, "/api/tick", b"", Some(&tok));
    }
    let resp = dispatch(
        &router,
        Method::Get,
        &format!("/api/jobs/{id}"),
        b"",
        Some(&tok),
    );
    let j = json_of(&resp);
    assert!(
        j.get("state")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("completed"),
        "{}",
        resp.body_str()
    );
    assert_eq!(j.get("stdout").unwrap().as_str(), Some("batch\n"));
}

#[test]
fn status_endpoint_public() {
    let (_, router) = test_app();
    let resp = dispatch(&router, Method::Get, "/api/status", b"", None);
    let j = json_of(&resp);
    assert_eq!(j.get("total_cores").unwrap().as_num(), Some(16.0));
    assert_eq!(j.get("free_cores").unwrap().as_num(), Some(16.0));
}

#[test]
fn html_pages_render() {
    let (app, router) = test_app();
    let resp = dispatch(&router, Method::Get, "/", b"", None);
    assert!(resp.body_str().contains("Cluster Computing Portal"));
    assert!(resp.body_str().contains("16 of 16 cores free"));
    // File browser redirects anonymous users home.
    let resp = dispatch(&router, Method::Get, "/files", b"", None);
    assert_eq!(resp.status, Status::FOUND);
    // Signed in: renders the listing.
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=visible.txt",
        b"x",
        Some(&tok),
    );
    let resp = dispatch(&router, Method::Get, "/files", b"", Some(&tok));
    assert!(
        resp.body_str().contains("visible.txt"),
        "{}",
        resp.body_str()
    );
    let resp = dispatch(&router, Method::Get, "/jobs", b"", Some(&tok));
    assert!(resp.body_str().contains("Job Monitor"));
}

#[test]
fn run_with_stdin_lines() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=s.mini",
        b"fn main() { println(read_line(), \"-\", read_line()); }",
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=s.mini",
        b"",
        Some(&tok),
    );
    let artifact = json_of(&resp)
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let resp = dispatch(
        &router,
        Method::Post,
        &format!("/api/run?artifact={artifact}"),
        b"first\nsecond",
        Some(&tok),
    );
    assert_eq!(
        json_of(&resp).get("stdout").unwrap().as_str(),
        Some("first-second\n")
    );
}

#[test]
fn deadlocked_run_reports_error_json() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=d.mini",
        b"fn main() { var m = mutex(); lock(m); lock(m); }",
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=d.mini",
        b"",
        Some(&tok),
    );
    let artifact = json_of(&resp)
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let resp = dispatch(
        &router,
        Method::Post,
        &format!("/api/run?artifact={artifact}"),
        b"",
        Some(&tok),
    );
    let j = json_of(&resp);
    assert_eq!(j.get("success").unwrap().as_bool(), Some(false));
    assert!(j
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("deadlock"));
}

#[test]
fn quota_endpoint() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=f",
        b"12345",
        Some(&tok),
    );
    let resp = dispatch(&router, Method::Get, "/api/quota", b"", Some(&tok));
    assert_eq!(json_of(&resp).get("used").unwrap().as_num(), Some(5.0));
}

#[test]
fn serves_over_real_tcp() {
    use std::io::{Read, Write};
    let (app, _router) = test_app();
    let handle = crate::app::serve(app, "127.0.0.1:0").unwrap();
    let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
    s.write_all(b"GET /api/status HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    assert!(out.contains("total_cores"));
    handle.shutdown();
}

#[test]
fn artifacts_listing() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=one.mini",
        b"fn main() { }",
        Some(&tok),
    );
    dispatch(
        &router,
        Method::Post,
        "/api/compile?path=one.mini",
        b"",
        Some(&tok),
    );
    let resp = dispatch(&router, Method::Get, "/api/artifacts", b"", Some(&tok));
    let arr = json_of(&resp);
    assert_eq!(arr.as_arr().unwrap().len(), 1);
    assert!(arr.as_arr().unwrap()[0]
        .get("source")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("one.mini"));
}

#[test]
fn role_parsing_in_user_creation() {
    let (_, router) = test_app();
    let admin = login(&router, "admin", "super-secret9");
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/admin/users",
        br#"{"name":"prof","password":"password99","role":"faculty"}"#,
        Some(&admin),
    );
    assert_eq!(resp.status, Status::CREATED);
    let prof = login(&router, "prof", "password99");
    let resp = dispatch(&router, Method::Get, "/api/whoami", b"", Some(&prof));
    assert_eq!(
        json_of(&resp).get("role").unwrap().as_str(),
        Some("faculty")
    );
    let _ = Role::Faculty;
}

#[test]
fn multipart_multi_file_upload() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    let body = "--BNDRY\r\nContent-Disposition: form-data; name=\"f\"; filename=\"one.mini\"\r\n\r\nfn main() { }\r\n--BNDRY\r\nContent-Disposition: form-data; name=\"f\"; filename=\"two.txt\"\r\n\r\nnotes here\r\n--BNDRY--\r\n".to_string();
    let mut req =
        httpd::Request::synthetic(Method::Post, "/api/upload?dir=uploads", body.as_bytes())
            .with_header("cookie", &format!("sid={tok}"))
            .with_header("content-type", "multipart/form-data; boundary=BNDRY");
    // Directory must exist first.
    dispatch(
        &router,
        Method::Post,
        "/api/mkdir?path=uploads",
        b"",
        Some(&tok),
    );
    let resp = router.dispatch(&mut req);
    assert_eq!(resp.status, Status::CREATED, "{}", resp.body_str());
    let saved = json_of(&resp);
    assert_eq!(saved.get("saved").unwrap().as_arr().unwrap().len(), 2);
    let resp = dispatch(
        &router,
        Method::Get,
        "/api/file?path=uploads/two.txt",
        b"",
        Some(&tok),
    );
    assert_eq!(resp.body, b"notes here");
    let resp = dispatch(
        &router,
        Method::Get,
        "/api/file?path=uploads/one.mini",
        b"",
        Some(&tok),
    );
    assert_eq!(resp.body, b"fn main() { }");
}

#[test]
fn health_endpoint_and_admin_drain_cycle() {
    let (_, router) = test_app();
    // Health is public and starts clean.
    let resp = dispatch(&router, Method::Get, "/api/health", b"", None);
    let j = json_of(&resp);
    assert_eq!(j.get("degraded").unwrap().as_bool(), Some(false));
    assert_eq!(j.get("nodes").unwrap().as_arr().unwrap().len(), 4);
    // Drain one node as admin: health flips to degraded.
    let admin = login(&router, "admin", "super-secret9");
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/admin/drain?segment=0&slot=1",
        b"",
        Some(&admin),
    );
    assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
    let j = json_of(&dispatch(&router, Method::Get, "/api/health", b"", None));
    assert_eq!(j.get("degraded").unwrap().as_bool(), Some(true));
    let draining: Vec<_> = j
        .get("nodes")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|n| n.get("health").unwrap().as_str() == Some("draining"))
        .collect();
    assert_eq!(draining.len(), 1);
    assert_eq!(draining[0].get("slot").unwrap().as_num(), Some(1.0));
    // Undrain restores full health.
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/admin/undrain?segment=0&slot=1",
        b"",
        Some(&admin),
    );
    assert_eq!(resp.status, Status::OK);
    let j = json_of(&dispatch(&router, Method::Get, "/api/health", b"", None));
    assert_eq!(j.get("degraded").unwrap().as_bool(), Some(false));
}

#[test]
fn drain_requires_admin_role_and_params() {
    let (app, router) = test_app();
    let student = make_student(&app, &router, "alice");
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/admin/drain?segment=0&slot=0",
        b"",
        Some(&student),
    );
    assert_eq!(resp.status, Status::FORBIDDEN);
    let admin = login(&router, "admin", "super-secret9");
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/admin/drain?segment=0",
        b"",
        Some(&admin),
    );
    assert_eq!(resp.status, Status::BAD_REQUEST);
}

#[test]
fn job_json_reports_attempts_and_failure_cause() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=r.mini",
        b"fn main() { println(\"x\"); }",
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=r.mini",
        b"",
        Some(&tok),
    );
    let artifact = json_of(&resp)
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let body = format!(r#"{{"artifact":"{artifact}","cores":1,"estimated_ticks":50}}"#);
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/jobs",
        body.as_bytes(),
        Some(&tok),
    );
    let id = json_of(&resp).get("job").unwrap().as_num().unwrap() as u64;
    dispatch(&router, Method::Post, "/api/tick", b"", Some(&tok));
    let j = json_of(&dispatch(
        &router,
        Method::Get,
        &format!("/api/jobs/{id}"),
        b"",
        Some(&tok),
    ));
    assert_eq!(j.get("attempt").unwrap().as_num(), Some(1.0));
    assert_eq!(j.get("last_failure"), Some(&Json::Null));
    // Stretch the job's true runtime (the trivial program finished in one
    // tick) so the node failure lands while it is still running, then kill
    // every node: the job is requeued and the monitor shows the cause.
    app.write(|portal| {
        let sched = portal.scheduler_mut();
        sched.job_mut(sched::JobId(id)).unwrap().spec.actual_ticks = 100;
        for node in sched.cluster().slave_ids() {
            sched
                .cluster_mut()
                .set_health(node, cluster::NodeHealth::Down)
                .unwrap();
        }
    });
    dispatch(&router, Method::Post, "/api/tick", b"", Some(&tok));
    let j = json_of(&dispatch(
        &router,
        Method::Get,
        &format!("/api/jobs/{id}"),
        b"",
        Some(&tok),
    ));
    assert!(
        j.get("state")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("requeued"),
        "{j:?}"
    );
    assert_eq!(
        j.get("last_failure").unwrap().as_str(),
        Some("node went down")
    );
    let j = json_of(&dispatch(&router, Method::Get, "/api/health", b"", None));
    assert_eq!(j.get("degraded").unwrap().as_bool(), Some(true));
}

#[test]
fn metrics_endpoint_covers_httpd_sched_and_cluster() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    // Drive one job through so sched/toolchain counters move.
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=m.mini",
        b"fn main() { println(\"m\"); }",
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=m.mini",
        b"",
        Some(&tok),
    );
    let artifact = json_of(&resp)
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let body = format!(r#"{{"artifact":"{artifact}","cores":1,"estimated_ticks":3}}"#);
    dispatch(
        &router,
        Method::Post,
        "/api/jobs",
        body.as_bytes(),
        Some(&tok),
    );
    for _ in 0..10 {
        dispatch(&router, Method::Post, "/api/tick", b"", Some(&tok));
    }
    // Public, Prometheus-typed, and covering every layer.
    let mut req = httpd::Request::synthetic(Method::Get, "/api/metrics", b"");
    let resp = router.dispatch(&mut req);
    assert_eq!(resp.status, Status::OK);
    assert!(resp
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    let text = resp.body_str().to_string();
    for needle in [
        // httpd: counter, histogram, gauge (requests routed through dispatch).
        "# TYPE ccp_httpd_requests_total counter",
        "ccp_httpd_requests_total{method=\"POST\",route=\"/api/tick\",status=\"200\"} 10",
        "ccp_httpd_request_duration_us_bucket",
        "# TYPE ccp_httpd_inflight gauge",
        // sched: counter, gauge, histogram.
        "ccp_sched_jobs_submitted_total 1",
        "ccp_sched_jobs_completed_total 1",
        "ccp_sched_queue_depth 0",
        "ccp_sched_job_run_ticks_count 1",
        // cluster: counter, gauge, histogram.
        "ccp_cluster_allocations_total 1",
        "ccp_cluster_nodes{state=\"up\"} 4",
        "ccp_cluster_alloc_cores_count 1",
        // toolchain rides along.
        "ccp_toolchain_compiles_total{result=\"ok\"} 1",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn trace_endpoint_returns_gated_timeline() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=t.mini",
        b"fn main() { println(\"t\"); }",
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=t.mini",
        b"",
        Some(&tok),
    );
    let artifact = json_of(&resp)
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let body = format!(r#"{{"artifact":"{artifact}","cores":1,"estimated_ticks":3}}"#);
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/jobs",
        body.as_bytes(),
        Some(&tok),
    );
    let id = json_of(&resp).get("job").unwrap().as_num().unwrap() as u64;
    for _ in 0..10 {
        dispatch(&router, Method::Post, "/api/tick", b"", Some(&tok));
    }
    // Owner gets the ordered timeline ending in the terminal event.
    let resp = dispatch(
        &router,
        Method::Get,
        &format!("/api/trace/{id}"),
        b"",
        Some(&tok),
    );
    assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
    let j = json_of(&resp);
    let events: Vec<String> = j
        .get("timeline")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|e| e.get("event").unwrap().as_str().unwrap().to_string())
        .collect();
    // Traced submission: the http.request root and the cluster/exec
    // children now carry the job attr too, so the timeline shows the
    // whole causal chain, not just the scheduler lifecycle.
    assert_eq!(
        events,
        vec![
            "http.request",
            "job.submitted",
            "job.queued",
            "cluster.alloc",
            "job.dispatched",
            "exec.run",
            "job.completed"
        ]
    );
    // The span tree view: one connected tree rooted at http.request.
    let root = j.get("root").unwrap().as_num().unwrap() as u64;
    let spans = j.get("spans").unwrap().as_arr().unwrap();
    assert!(!spans.is_empty());
    assert_eq!(spans[0].get("id").unwrap().as_num().unwrap() as u64, root);
    assert_eq!(spans[0].get("name").unwrap().as_str(), Some("http.request"));
    for s in &spans[1..] {
        assert!(
            s.get("parent").unwrap().as_num().is_some(),
            "disconnected span"
        );
    }
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name")?.as_str())
        .collect();
    for needle in [
        "job.submitted",
        "cluster.alloc",
        "exec.run",
        "job.completed",
    ] {
        assert!(names.contains(&needle), "missing {needle} in {names:?}");
    }
    assert_eq!(j.get("truncated").unwrap().as_num(), Some(0.0));
    let job_state = json_of(&dispatch(
        &router,
        Method::Get,
        &format!("/api/jobs/{id}"),
        b"",
        Some(&tok),
    ));
    assert!(job_state
        .get("state")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("completed"));
    // Another student is refused; anonymous is 401.
    let eve = make_student(&app, &router, "eve");
    let resp = dispatch(
        &router,
        Method::Get,
        &format!("/api/trace/{id}"),
        b"",
        Some(&eve),
    );
    assert_eq!(resp.status, Status::FORBIDDEN);
    let resp = dispatch(&router, Method::Get, &format!("/api/trace/{id}"), b"", None);
    assert_eq!(resp.status, Status::UNAUTHORIZED);
}

#[test]
fn admin_events_endpoint_gated() {
    let (app, router) = test_app();
    let student = make_student(&app, &router, "alice");
    let resp = dispatch(
        &router,
        Method::Get,
        "/api/admin/events",
        b"",
        Some(&student),
    );
    assert_eq!(resp.status, Status::FORBIDDEN);
    let admin = login(&router, "admin", "super-secret9");
    let resp = dispatch(
        &router,
        Method::Get,
        "/api/admin/events?limit=5",
        b"",
        Some(&admin),
    );
    assert_eq!(resp.status, Status::OK);
    let j = json_of(&resp);
    assert!(j.get("events").unwrap().as_arr().is_some());
    assert_eq!(j.get("truncated").unwrap().as_num(), Some(0.0));
}

#[test]
fn health_reports_headline_gauges() {
    let (_, router) = test_app();
    let j = json_of(&dispatch(&router, Method::Get, "/api/health", b"", None));
    assert_eq!(j.get("nodes_up").unwrap().as_num(), Some(4.0));
    assert_eq!(j.get("nodes_draining").unwrap().as_num(), Some(0.0));
    assert_eq!(j.get("nodes_down").unwrap().as_num(), Some(0.0));
    assert_eq!(j.get("queue_depth").unwrap().as_num(), Some(0.0));
    assert_eq!(j.get("jobs_running").unwrap().as_num(), Some(0.0));
    // The flag and the counts derive from one snapshot: drain a node and
    // both move together.
    let admin = login(&router, "admin", "super-secret9");
    dispatch(
        &router,
        Method::Post,
        "/api/admin/drain?segment=1&slot=0",
        b"",
        Some(&admin),
    );
    let j = json_of(&dispatch(&router, Method::Get, "/api/health", b"", None));
    assert_eq!(j.get("degraded").unwrap().as_bool(), Some(true));
    assert_eq!(j.get("nodes_up").unwrap().as_num(), Some(3.0));
    assert_eq!(j.get("nodes_draining").unwrap().as_num(), Some(1.0));
}

#[test]
fn upload_without_multipart_content_type_rejected() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    let resp = dispatch(&router, Method::Post, "/api/upload", b"data", Some(&tok));
    assert_eq!(resp.status, Status::BAD_REQUEST);
}

#[test]
fn upload_with_a_bogus_session_gets_401() {
    let (_app, router) = test_app();
    // No file part, so no session-checked write ever runs: the route has
    // to check the session itself.
    let mut req = httpd::Request::synthetic(Method::Post, "/api/upload", b"--BNDRY--\r\n")
        .with_header("cookie", "sid=not-a-session")
        .with_header("content-type", "multipart/form-data; boundary=BNDRY");
    assert_eq!(router.dispatch(&mut req).status, Status::UNAUTHORIZED);
}

#[test]
fn json_routes_with_a_bogus_session_get_401_before_the_body_is_parsed() {
    let (_app, router) = test_app();
    for path in ["/api/admin/users", "/api/jobs"] {
        let resp = dispatch(
            &router,
            Method::Post,
            path,
            b"not json",
            Some("not-a-session"),
        );
        assert_eq!(
            resp.status,
            Status::UNAUTHORIZED,
            "{path}: {}",
            resp.body_str()
        );
    }
}

#[test]
fn json_routes_with_a_valid_session_still_reject_a_body_that_is_not_json() {
    let (_app, router) = test_app();
    let admin = login(&router, "admin", "super-secret9");
    for path in ["/api/admin/users", "/api/jobs"] {
        let resp = dispatch(&router, Method::Post, path, b"not json", Some(&admin));
        assert_eq!(
            resp.status,
            Status::BAD_REQUEST,
            "{path}: {}",
            resp.body_str()
        );
        assert!(
            resp.body_str().contains("expected JSON body"),
            "{path}: {}",
            resp.body_str()
        );
    }
}

#[test]
fn analyze_endpoint_reports_race_with_repro() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    // Two threads bump an unlocked global: the checker must call the race.
    let racy = b"var n = 0;\nfn w() { n = n + 1; }\nfn main() { var a = spawn w(); var b = spawn w(); join(a); join(b); }";
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=racy.mini",
        racy,
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=racy.mini",
        b"",
        Some(&tok),
    );
    let artifact = json_of(&resp)
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let resp = dispatch(
        &router,
        Method::Post,
        &format!("/api/analyze?artifact={artifact}"),
        b"",
        Some(&tok),
    );
    assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
    let j = json_of(&resp);
    assert_eq!(j.get("verdict").unwrap().as_str(), Some("race"));
    assert!(j
        .get("detail")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("data race"));
    assert!(
        !j.get("repro").unwrap().as_arr().unwrap().is_empty(),
        "race carries a repro"
    );
    assert!(j.get("schedules").unwrap().as_num().unwrap() >= 1.0);
    // A failing analysis never certifies exhaustiveness.
    assert_eq!(
        j.get("exhaustive_within_bound").unwrap().as_bool(),
        Some(false)
    );
    // The analysis shows up in the metrics exposition, including the eager
    // DPOR reduction families.
    let resp = dispatch(&router, Method::Get, "/api/metrics", b"", None);
    assert!(
        resp.body_str()
            .contains("ccp_checker_analyses_total{verdict=\"race\"} 1"),
        "checker counters missing from /api/metrics"
    );
    for family in [
        "ccp_checker_dpor_backtracks_total",
        "ccp_checker_dpor_pruned_siblings_total",
        "ccp_checker_dpor_bound_pruned_total",
    ] {
        assert!(
            resp.body_str().contains(family),
            "{family} missing from /api/metrics"
        );
    }
}

#[test]
fn analyze_endpoint_clean_program_and_ownership() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    dispatch(
        &router,
        Method::Post,
        "/api/file?path=ok.mini",
        b"fn main() { println(1); }",
        Some(&tok),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=ok.mini",
        b"",
        Some(&tok),
    );
    let artifact = json_of(&resp)
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let resp = dispatch(
        &router,
        Method::Post,
        &format!("/api/analyze?artifact={artifact}&budget=8"),
        b"",
        Some(&tok),
    );
    let j = json_of(&resp);
    assert_eq!(j.get("verdict").unwrap().as_str(), Some("clean"));
    assert_eq!(j.get("complete").unwrap().as_bool(), Some(true));
    // No preemption bound is configured, so the bounded certificate must
    // coincide with `complete`.
    assert_eq!(
        j.get("exhaustive_within_bound").unwrap().as_bool(),
        Some(true)
    );
    assert!(j.get("repro").unwrap().as_arr().unwrap().is_empty());
    // Another student may not analyze alice's artifact.
    let other = make_student(&app, &router, "bob");
    let resp = dispatch(
        &router,
        Method::Post,
        &format!("/api/analyze?artifact={artifact}"),
        b"",
        Some(&other),
    );
    assert_eq!(resp.status, Status::FORBIDDEN);
    // No session at all: 401.
    let resp = dispatch(
        &router,
        Method::Post,
        &format!("/api/analyze?artifact={artifact}"),
        b"",
        None,
    );
    assert_eq!(resp.status, Status::UNAUTHORIZED);
}

/// Save and compile `src` as `path`, returning the artifact id.
fn compile_source(router: &Router, tok: &str, path: &str, src: &str) -> String {
    let resp = dispatch(
        router,
        Method::Post,
        &format!("/api/file?path={path}"),
        src.as_bytes(),
        Some(tok),
    );
    assert_eq!(resp.status, Status::CREATED, "{}", resp.body_str());
    let resp = dispatch(
        router,
        Method::Post,
        &format!("/api/compile?path={path}"),
        b"",
        Some(tok),
    );
    json_of(&resp)
        .get("artifact")
        .and_then(Json::as_str)
        .expect("compiles")
        .to_string()
}

/// Loops of different lengths, each submitted with a one-tick estimate:
/// a tick that began before an earlier tick's outcomes landed would
/// complete them at that estimate, with no output.
const LOOP_BOUNDS: [u32; 6] = [1_500, 4_000, 9_000, 2_500, 7_000, 12_000];
const TICKERS: usize = 4;
const TICKS_EACH: usize = 8;

/// Submit one job per [`LOOP_BOUNDS`] entry, then tick `TICKERS *
/// TICKS_EACH` times from `TICKERS` threads at once (or from one), and
/// return each job's `(state, stdout)` plus the instructions its program
/// executes.
fn tick_loops(concurrent: bool) -> Vec<(String, String, u64)> {
    let (app, router) = test_app();
    let router = Arc::new(router);
    let tok = make_student(&app, &router, "alice");
    let jobs: Vec<(u64, u64)> = LOOP_BOUNDS
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let src =
                format!("fn main() {{ var i = 0; while (i < {n}) {{ i = i + 1; }} println(i); }}");
            let artifact = compile_source(&router, &tok, &format!("loop{i}.mini"), &src);
            let run = dispatch(
                &router,
                Method::Post,
                &format!("/api/run?artifact={artifact}"),
                b"",
                Some(&tok),
            );
            let executed = json_of(&run)
                .get("executed")
                .and_then(Json::as_num)
                .unwrap() as u64;
            let body = format!(r#"{{"artifact":"{artifact}","cores":1,"estimated_ticks":1}}"#);
            let resp = dispatch(
                &router,
                Method::Post,
                "/api/jobs",
                body.as_bytes(),
                Some(&tok),
            );
            assert_eq!(resp.status, Status::CREATED, "{}", resp.body_str());
            let id = json_of(&resp).get("job").and_then(Json::as_num).unwrap() as u64;
            (id, executed)
        })
        .collect();
    let tick = |router: &Router| {
        let resp = dispatch(router, Method::Post, "/api/tick", b"", Some(&tok));
        assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
    };
    if concurrent {
        let start = std::sync::Barrier::new(TICKERS);
        std::thread::scope(|s| {
            for _ in 0..TICKERS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..TICKS_EACH {
                        tick(&router);
                    }
                });
            }
        });
    } else {
        for _ in 0..TICKERS * TICKS_EACH {
            tick(&router);
        }
    }
    jobs.into_iter()
        .map(|(id, executed)| {
            let resp = dispatch(
                &router,
                Method::Get,
                &format!("/api/jobs/{id}"),
                b"",
                Some(&tok),
            );
            let j = json_of(&resp);
            let field = |k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("state"), field("stdout"), executed)
        })
        .collect()
}

#[test]
fn concurrent_ticks_serialize_and_complete_jobs_on_time() {
    let sequential = tick_loops(false);
    let concurrent = tick_loops(true);
    assert_eq!(concurrent, sequential);
    let ipt = PortalConfig::default().instructions_per_tick;
    for ((state, stdout, executed), n) in concurrent.iter().zip(LOOP_BOUNDS) {
        // Dispatched at tick 1, done `executed / ipt + 1` ticks later.
        let at = 1 + executed / ipt + 1;
        assert_eq!(state, &format!("completed at t={at}"));
        assert_eq!(stdout, &format!("{n}\n"));
    }
}

#[test]
fn concurrent_wrong_guesses_lock_the_account() {
    let (app, router) = test_app();
    make_student(&app, &router, "alice");
    let guess = |password: &str| {
        let body = format!(r#"{{"user":"alice","password":"{password}"}}"#);
        dispatch(&router, Method::Post, "/api/login", body.as_bytes(), None)
    };
    // As many wrong guesses as the lockout threshold, all stretching at
    // once.
    const GUESSES: usize = 5;
    let start = std::sync::Barrier::new(GUESSES);
    let answers: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..GUESSES)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    guess("wrong-guess")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let locked = |r: &Response| r.body_str().contains("locked");
    assert!(answers.iter().all(|r| r.status == Status::UNAUTHORIZED));
    assert_eq!(answers.iter().filter(|r| locked(r)).count(), 1);
    // The right password now meets a locked account: no session.
    let resp = guess("password99");
    assert_eq!(resp.status, Status::UNAUTHORIZED);
    assert!(locked(&resp), "{}", resp.body_str());
    assert!(resp.header("set-cookie").is_none());
}

/// Submit `artifact` as a job on `cores` cores, returning its id.
fn submit_job(router: &Router, tok: &str, artifact: &str, cores: u32) -> u64 {
    let body = format!(r#"{{"artifact":"{artifact}","cores":{cores},"estimated_ticks":1}}"#);
    let resp = dispatch(
        router,
        Method::Post,
        "/api/jobs",
        body.as_bytes(),
        Some(tok),
    );
    assert_eq!(resp.status, Status::CREATED, "{}", resp.body_str());
    json_of(&resp).get("job").and_then(Json::as_num).unwrap() as u64
}

#[test]
fn stdout_tail_reports_where_its_data_starts() {
    let (app, router) = test_app();
    let tok = make_student(&app, &router, "alice");
    let artifact = compile_source(&router, &tok, "quiet.mini", "fn main() { }");
    let id = submit_job(&router, &tok, &artifact, 1);
    app.write(|p| {
        p.scheduler_mut()
            .set_outcome(sched::JobId(id), Some("é\n"), None, None)
    })
    .unwrap();
    // Byte 1 is inside "é": the data starts at the next boundary, byte 2,
    // and the reply says so, so a client can splice `data` in at `from`.
    for (from, data, start) in [
        (0, "é\n", 0),
        (1, "\n", 2),
        (2, "\n", 2),
        (3, "", 3),
        (9, "", 3),
    ] {
        let resp = dispatch(
            &router,
            Method::Get,
            &format!("/api/jobs/{id}/stdout?from={from}"),
            b"",
            Some(&tok),
        );
        assert_eq!(resp.status, Status::OK);
        assert_eq!(
            resp.body_str(),
            format!(r#"{{"data":{},"from":{start},"len":3}}"#, Json::str(data)),
            "from={from}"
        );
    }
}

/// The tree each job row was built as before the routes wrote rows
/// straight into the body: the oracle for their bytes.
fn job_row_tree(j: &ccp_core::JobView) -> Json {
    Json::obj(vec![
        ("id", Json::num(j.id.0 as f64)),
        ("user", Json::str(j.user.clone())),
        ("executable", Json::str(j.executable.clone())),
        ("state", Json::str(j.state_label.clone())),
        ("cores", Json::num(j.cores as f64)),
        ("attempt", Json::num(j.attempt as f64)),
        (
            "last_failure",
            j.last_failure
                .as_ref()
                .map(|f| Json::str(f.clone()))
                .unwrap_or(Json::Null),
        ),
        ("stdout", Json::str(j.stdout.clone())),
        ("stderr", Json::str(j.stderr.clone())),
    ])
}

#[test]
fn job_routes_write_the_bytes_of_the_row_tree() {
    let (app, router) = test_app();
    let alice = make_student(&app, &router, "alice");
    let bob = make_student(&app, &router, "bob");
    let carol = make_student(&app, &router, "carol");
    let admin = login(&router, "admin", "super-secret9");
    let art_a = compile_source(&router, &alice, "a.mini", "fn main() { }");
    let art_b = compile_source(&router, &bob, "b.mini", "fn main() { }");
    let tick = || {
        let resp = dispatch(&router, Method::Post, "/api/tick", b"", Some(&admin));
        assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
    };
    let set_every_node = |health: cluster::NodeHealth| {
        app.write(|p| {
            let s = p.scheduler_mut();
            for node in s.cluster().slave_ids() {
                s.cluster_mut().set_health(node, health).unwrap();
            }
        })
    };

    // alice's first job completes.
    let done = submit_job(&router, &alice, &art_a, 1);
    for _ in 0..3 {
        tick();
    }
    // Her second is requeued with a failure cause by taking every node
    // down, as in `job_json_reports_attempts_and_failure_cause`: its true
    // runtime is stretched so the loss lands while it runs, and a long
    // backoff keeps it requeued once the nodes are back.
    let requeued = submit_job(&router, &alice, &art_a, 1);
    tick();
    app.write(|p| {
        let s = p.scheduler_mut();
        let spec = &mut s.job_mut(sched::JobId(requeued)).unwrap().spec;
        spec.actual_ticks = 100;
        spec.retry = Some(sched::RetryPolicy::fixed(3, 1_000));
    });
    set_every_node(cluster::NodeHealth::Down);
    tick();
    set_every_node(cluster::NodeHealth::Up);
    // bob's first job is dispatched by the last tick, so it is running.
    let running = submit_job(&router, &bob, &art_b, 2);
    tick();
    let cancelled = submit_job(&router, &bob, &art_b, 1);
    let resp = dispatch(
        &router,
        Method::Post,
        &format!("/api/jobs/{cancelled}/cancel"),
        b"",
        Some(&bob),
    );
    assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
    let pending = submit_job(&router, &alice, &art_a, 1);

    // Every escape class, and text that passes through raw.
    let nasty = "q\" b\\ s/ n\n t\t r\r 0\u{0} 7\u{7} 1b\u{1b} 1f\u{1f} 7f\u{7f} é ☃ 𝄞";
    app.write(|p| {
        let s = p.scheduler_mut();
        for (id, out, err) in [
            (done, Some(nasty), None),
            (running, None, Some(nasty)),
            (requeued, Some(nasty), Some("\r\n\t")),
            (cancelled, Some("\u{1}"), Some(nasty)),
        ] {
            s.set_outcome(sched::JobId(id), out, err, None).unwrap();
        }
    });

    let wall_now = || {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_secs()
    };
    let oracle_list = |tok: &str| {
        let token = auth::Token::from_string(tok.to_string());
        let rows = app.read(|p| p.jobs(&token, wall_now())).unwrap();
        Json::Arr(rows.iter().map(job_row_tree).collect()).to_string()
    };
    let list = |tok: &str| {
        let resp = dispatch(&router, Method::Get, "/api/jobs", b"", Some(tok));
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.header("Content-Type"), Some("application/json"));
        resp.body_str().to_string()
    };

    // The admin sees every state, with and without a failure cause.
    let all = Json::parse(&list(&admin)).unwrap();
    let rows = all.as_arr().unwrap();
    assert_eq!(rows.len(), 5);
    let field = |row: &Json, k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
    let states: Vec<String> = rows.iter().map(|r| field(r, "state").unwrap()).collect();
    for prefix in ["completed", "running", "requeued", "cancelled", "pending"] {
        assert!(states.iter().any(|s| s.starts_with(prefix)), "{states:?}");
    }
    assert!(rows
        .iter()
        .any(|r| r.get("last_failure") == Some(&Json::Null)));
    let lost_row = rows
        .iter()
        .find(|r| r.get("id").and_then(Json::as_num) == Some(requeued as f64))
        .unwrap();
    assert_eq!(
        field(lost_row, "last_failure").as_deref(),
        Some("node went down")
    );

    for tok in [&alice, &bob, &carol, &admin] {
        assert_eq!(list(tok), oracle_list(tok));
    }
    assert_eq!(list(&carol), "[]");
    // A student's list is exactly their rows of the admin's list.
    for (tok, user) in [(&alice, "alice"), (&bob, "bob")] {
        let mine: Vec<Json> = rows
            .iter()
            .filter(|r| field(r, "user").as_deref() == Some(user))
            .cloned()
            .collect();
        assert_eq!(Json::parse(&list(tok)).unwrap(), Json::Arr(mine));
    }

    for (id, owner) in [
        (done, &alice),
        (running, &bob),
        (requeued, &alice),
        (cancelled, &bob),
        (pending, &alice),
    ] {
        for tok in [owner, &admin] {
            let resp = dispatch(
                &router,
                Method::Get,
                &format!("/api/jobs/{id}"),
                b"",
                Some(tok),
            );
            assert_eq!(resp.status, Status::OK);
            assert_eq!(resp.header("Content-Type"), Some("application/json"));
            let token = auth::Token::from_string(tok.to_string());
            let view = app
                .read(|p| p.job(&token, sched::JobId(id), wall_now()))
                .unwrap();
            assert_eq!(resp.body_str(), job_row_tree(&view).to_string());
        }
    }
}

/// A program printing an array that contains itself, through `/api/run`
/// and as a job through `POST /api/tick`: each answers with the cycle
/// marked, and the portal keeps serving. Fails, rather than hangs, if a
/// request has not returned within 30 s.
#[test]
fn printing_a_cyclic_array_answers_on_run_and_tick() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (app, router) = test_app();
        let tok = make_student(&app, &router, "alice");
        let health = |router: &Router| {
            let resp = dispatch(router, Method::Get, "/api/health", b"", None);
            assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
        };
        let artifact = compile_source(
            &router,
            &tok,
            "cycle.mini",
            "fn main() { var a = [0]; a[0] = a; println(a); }",
        );
        let resp = dispatch(
            &router,
            Method::Post,
            &format!("/api/run?artifact={artifact}"),
            b"",
            Some(&tok),
        );
        let j = json_of(&resp);
        assert_eq!(
            j.get("success").and_then(Json::as_bool),
            Some(true),
            "{j:?}"
        );
        assert_eq!(j.get("stdout").and_then(Json::as_str), Some("[[...]]\n"));
        health(&router);

        let body = format!(r#"{{"artifact":"{artifact}","cores":1,"estimated_ticks":1}}"#);
        let resp = dispatch(
            &router,
            Method::Post,
            "/api/jobs",
            body.as_bytes(),
            Some(&tok),
        );
        assert_eq!(resp.status, Status::CREATED, "{}", resp.body_str());
        let id = json_of(&resp).get("job").and_then(Json::as_num).unwrap() as u64;
        let resp = dispatch(&router, Method::Post, "/api/tick", b"", Some(&tok));
        assert_eq!(resp.status, Status::OK, "{}", resp.body_str());
        let resp = dispatch(
            &router,
            Method::Get,
            &format!("/api/jobs/{id}"),
            b"",
            Some(&tok),
        );
        let j = json_of(&resp);
        assert_eq!(
            j.get("stdout").and_then(Json::as_str),
            Some("[[...]]\n"),
            "{j:?}"
        );
        health(&router);
        let _ = done.send(());
    });
    match finished.recv_timeout(std::time::Duration::from_secs(30)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("a request printing a cyclic array did not return within 30 s")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the test body failed; see its panic above")
        }
        Ok(()) => {}
    }
}
