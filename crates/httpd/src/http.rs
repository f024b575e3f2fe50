//! HTTP/1.1 message types, parsing and serialization.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;

/// Request methods the portal uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// PUT
    Put,
    /// DELETE
    Delete,
    /// HEAD
    Head,
}

impl Method {
    /// Parse from the request line.
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "HEAD" => Method::Head,
            _ => return None,
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        })
    }
}

/// Response status codes used by the portal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// 200
    pub const OK: Status = Status(200);
    /// 201
    pub const CREATED: Status = Status(201);
    /// 302
    pub const FOUND: Status = Status(302);
    /// 400
    pub const BAD_REQUEST: Status = Status(400);
    /// 401
    pub const UNAUTHORIZED: Status = Status(401);
    /// 403
    pub const FORBIDDEN: Status = Status(403);
    /// 404
    pub const NOT_FOUND: Status = Status(404);
    /// 405
    pub(crate) const METHOD_NOT_ALLOWED: Status = Status(405);
    /// 408
    pub const REQUEST_TIMEOUT: Status = Status(408);
    /// 409
    pub const CONFLICT: Status = Status(409);
    /// 410
    pub const GONE: Status = Status(410);
    /// 413
    pub const PAYLOAD_TOO_LARGE: Status = Status(413);
    /// 500
    pub const INTERNAL: Status = Status(500);
    /// 503
    pub(crate) const SERVICE_UNAVAILABLE: Status = Status(503);

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            302 => "Found",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path without the query string.
    pub path: String,
    /// Raw query string ("" when absent).
    pub query: String,
    /// Header map, keys lowercased.
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Path parameters filled by the router (`:name` captures).
    pub params: BTreeMap<String, String>,
}

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line / headers.
    Malformed(&'static str),
    /// Body larger than the configured limit.
    TooLarge {
        /// Declared content length.
        declared: usize,
        /// Limit.
        limit: usize,
    },
    /// Socket error while reading.
    Io(String),
    /// The client stalled past the read deadline (slow-loris defence).
    Timeout,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds limit {limit}")
            }
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Timeout => write!(f, "client read timed out"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Maximum accepted body (uploads included): 8 MiB.
pub const MAX_BODY: usize = 8 << 20;

/// The interim response to `Expect: 100-continue`: the client may send
/// its body. Written raw, since a 1xx response carries no
/// `Content-Length` (see [`Request::awaits_continue`]).
pub(crate) const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Maximum accepted head (request line + headers): 32 KiB.
/// [`Request::parse_bytes`] enforces it, so a client can never make either
/// engine buffer an endless head; the read deadline bounds how long it
/// may take to send one.
pub(crate) const MAX_HEAD: usize = 32 << 10;

impl Request {
    /// Incrementally parse one request from `buf` (the bytes received so
    /// far on a socket). Returns `Ok(None)` when the buffer holds a valid
    /// *prefix* of a request and more bytes are needed, and
    /// `Ok(Some((request, consumed)))` once a full request is present —
    /// `consumed` bytes belong to it, anything after is the next pipelined
    /// request. Errors are reported as soon as they are decidable: a bad
    /// request line or header fails on its first complete line, and an
    /// oversized `Content-Length` fails before any body byte is buffered.
    pub fn parse_bytes(buf: &[u8], max_body: usize) -> Result<Option<(Request, usize)>, HttpError> {
        let Some((mut req, head_len, body_len)) = Request::parse_head(buf, max_body)? else {
            return Ok(None);
        };
        let Some(body) = buf.get(head_len..head_len + body_len) else {
            return Ok(None);
        };
        req.body = body.to_vec();
        Ok(Some((req, head_len + body_len)))
    }

    /// Whether the client that sent `buf` waits for a [`CONTINUE`] before
    /// it sends the body: the head is whole, carries
    /// `Expect: 100-continue` and declares a body within `max_body` that
    /// has not all arrived.
    pub(crate) fn awaits_continue(buf: &[u8], max_body: usize) -> bool {
        matches!(
            Request::parse_head(buf, max_body),
            Ok(Some((req, head_len, body_len)))
                if buf.len() - head_len < body_len
                    && req
                        .header("expect")
                        .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
        )
    }

    /// The head at the start of `buf`: the request without its body, the
    /// head's length and the declared body length, or `Ok(None)` while
    /// the head is incomplete.
    fn parse_head(
        buf: &[u8],
        max_body: usize,
    ) -> Result<Option<(Request, usize, usize)>, HttpError> {
        fn take_line<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Option<&'a str>, HttpError> {
            match buf[*pos..].iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let line = &buf[*pos..*pos + nl];
                    *pos += nl + 1;
                    let s = std::str::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-utf8 header"))?;
                    Ok(Some(s.trim_end()))
                }
                None if buf.len() - *pos > MAX_HEAD => {
                    Err(HttpError::Malformed("request head too large"))
                }
                None => Ok(None),
            }
        }
        let mut pos = 0usize;
        let Some(line) = take_line(buf, &mut pos)? else {
            return Ok(None);
        };
        let mut parts = line.splitn(3, ' ');
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or(HttpError::Malformed("bad method"))?;
        let target = parts.next().ok_or(HttpError::Malformed("missing target"))?;
        let version = parts
            .next()
            .ok_or(HttpError::Malformed("missing version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported version"));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        let mut headers = BTreeMap::new();
        loop {
            if pos > MAX_HEAD {
                return Err(HttpError::Malformed("request head too large"));
            }
            let Some(hl) = take_line(buf, &mut pos)? else {
                return Ok(None);
            };
            if hl.is_empty() {
                break;
            }
            let (k, v) = hl
                .split_once(':')
                .ok_or(HttpError::Malformed("bad header"))?;
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
        let body_len = match headers.get("content-length") {
            Some(cl) => {
                let n: usize = cl
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad content-length"))?;
                if n > max_body {
                    return Err(HttpError::TooLarge {
                        declared: n,
                        limit: max_body,
                    });
                }
                n
            }
            None => 0,
        };
        Ok(Some((
            Request {
                method,
                path,
                query,
                headers,
                body: Vec::new(),
                params: BTreeMap::new(),
            },
            pos,
            body_len,
        )))
    }

    /// Whether the client asked to reuse the connection. HTTP/1.1 defaults
    /// to persistent connections, but the portal is conservative: it keeps
    /// the socket open only on an explicit `Connection: keep-alive`, so
    /// clients that read to EOF (curl-style one-shots, every pre-reactor
    /// test) still get the close they expect.
    pub(crate) fn wants_keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }

    /// Body as UTF-8 (empty string when not valid).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// A header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// A router-captured path parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }

    /// Build a synthetic request (tests and in-process portal calls).
    pub fn synthetic(method: Method, path_and_query: &str, body: &[u8]) -> Request {
        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path_and_query.to_string(), String::new()),
        };
        Request {
            method,
            path,
            query,
            headers: BTreeMap::new(),
            body: body.to_vec(),
            params: BTreeMap::new(),
        }
    }

    /// Add a header to a synthetic request (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers
            .insert(name.to_ascii_lowercase(), value.to_string());
        self
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Headers in insertion order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: Status) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// 200 text/plain.
    pub fn text(body: impl Into<String>) -> Response {
        Response::new(Status::OK)
            .with_header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// 200 text/html.
    pub fn html(body: impl Into<String>) -> Response {
        Response::new(Status::OK)
            .with_header("Content-Type", "text/html; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// A JSON response with the given status.
    pub fn json(status: Status, value: &crate::json::Json) -> Response {
        let mut body = String::new();
        value.write_into(&mut body);
        Response::new(status)
            .with_header("Content-Type", "application/json")
            .with_body(body.into_bytes())
    }

    /// 302 redirect.
    pub fn redirect(location: &str) -> Response {
        Response::new(Status::FOUND).with_header("Location", location)
    }

    /// Error response with a plain-text body.
    pub fn error(status: Status, message: impl Into<String>) -> Response {
        Response::new(status)
            .with_header("Content-Type", "text/plain; charset=utf-8")
            .with_body(message.into().into_bytes())
    }

    /// Add a header (builder).
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Set the body (builder).
    pub fn with_body(mut self, body: Vec<u8>) -> Response {
        self.body = body;
        self
    }

    /// Set a session cookie (HttpOnly, path=/).
    pub fn with_cookie(self, name: &str, value: &str) -> Response {
        self.with_header("Set-Cookie", &format!("{name}={value}; Path=/; HttpOnly"))
    }

    /// Serialize onto a socket (always `Connection: close` — the blocking
    /// engine never reuses connections).
    pub(crate) fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        self.write_into(&mut out, false);
        w.write_all(&out)?;
        w.flush()
    }

    /// Serialize into a memory buffer, choosing the `Connection` header.
    /// The reactor builds the whole wire image up front so its write path
    /// is a plain nonblocking flush of `out`.
    pub fn write_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        use std::io::Write as _;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\n",
            self.status.0,
            self.status.reason()
        );
        let mut has_len = false;
        for (k, v) in &self.headers {
            if k.eq_ignore_ascii_case("content-length") {
                has_len = true;
            }
            let _ = write!(out, "{k}: {v}\r\n");
        }
        if !has_len {
            let _ = write!(out, "Content-Length: {}\r\n", self.body.len());
        }
        let conn = if keep_alive { "keep-alive" } else { "close" };
        let _ = write!(out, "Connection: {conn}\r\n\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Body as UTF-8 for assertions.
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a request that must be complete in `raw`: a valid prefix that
    /// needs more bytes is an error here.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        match Request::parse_bytes(raw.as_bytes(), MAX_BODY)? {
            Some((req, _)) => Ok(req),
            None => Err(HttpError::Malformed("incomplete request")),
        }
    }

    #[test]
    fn parse_get_with_query() {
        let r = parse("GET /files?path=/home/a&sort=name HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/files");
        assert_eq!(r.query, "path=/home/a&sort=name");
        assert_eq!(r.header("host"), Some("x"));
    }

    #[test]
    fn parse_post_with_body() {
        let r = parse("POST /login HTTP/1.1\r\nContent-Length: 9\r\n\r\nuser=alic").unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body_str(), "user=alic");
    }

    #[test]
    fn header_names_case_folded() {
        let r = parse("GET / HTTP/1.1\r\nX-Custom-Thing: v\r\n\r\n").unwrap();
        assert_eq!(r.header("x-custom-thing"), Some("v"));
        assert_eq!(r.header("X-CUSTOM-THING"), Some("v"));
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(matches!(Request::parse_bytes(b"", MAX_BODY), Ok(None)));
        assert!(parse("FROB / HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("GET /\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nBadHeader\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge { .. })));
    }

    #[test]
    fn custom_body_limit_enforced() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 6\r\n\r\nabcdef";
        assert!(matches!(
            Request::parse_bytes(raw, 5),
            Err(HttpError::TooLarge {
                declared: 6,
                limit: 5
            })
        ));
        let (r, _) = Request::parse_bytes(raw, 6).unwrap().unwrap();
        assert_eq!(r.body_str(), "abcdef");
    }

    #[test]
    fn new_status_reasons() {
        assert_eq!(Status::REQUEST_TIMEOUT.reason(), "Request Timeout");
        assert_eq!(Status::SERVICE_UNAVAILABLE.reason(), "Service Unavailable");
        assert_eq!(Status::GONE.reason(), "Gone");
    }

    #[test]
    fn response_serialization() {
        let r = Response::text("hello").with_cookie("sid", "abc123");
        let mut buf = Vec::new();
        r.write_to(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 5"));
        assert!(s.contains("Set-Cookie: sid=abc123; Path=/; HttpOnly"));
        assert!(s.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn redirect_and_error_helpers() {
        let r = Response::redirect("/login");
        assert_eq!(r.status, Status::FOUND);
        assert_eq!(r.header("location"), Some("/login"));
        let e = Response::error(Status::FORBIDDEN, "no");
        assert_eq!(e.status.0, 403);
        assert_eq!(e.body_str(), "no");
        assert_eq!(Status(418).reason(), "Unknown");
    }

    #[test]
    fn incremental_parse_partial_then_complete() {
        let raw = b"POST /login HTTP/1.1\r\nContent-Length: 9\r\n\r\nuser=alic";
        for cut in 0..raw.len() {
            assert!(
                Request::parse_bytes(&raw[..cut], MAX_BODY)
                    .unwrap()
                    .is_none(),
                "prefix of {cut} bytes parsed as complete"
            );
        }
        let (r, consumed) = Request::parse_bytes(raw, MAX_BODY).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body_str(), "user=alic");
    }

    #[test]
    fn incremental_parse_leaves_pipelined_tail() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (r, consumed) = Request::parse_bytes(raw, MAX_BODY).unwrap().unwrap();
        assert_eq!(r.path, "/a");
        let (r2, consumed2) = Request::parse_bytes(&raw[consumed..], MAX_BODY)
            .unwrap()
            .unwrap();
        assert_eq!(r2.path, "/b");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn incremental_parse_errors_eagerly() {
        // A complete-but-bad request line fails before the head finishes.
        assert!(Request::parse_bytes(b"FROB / HTTP/1.1\r\nHost", MAX_BODY).is_err());
        // Oversized declared body fails before any body byte arrives.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n";
        assert!(matches!(
            Request::parse_bytes(raw, 5),
            Err(HttpError::TooLarge {
                declared: 10,
                limit: 5
            })
        ));
        // An endless dribble of header bytes trips the head cap.
        let mut big = b"GET / HTTP/1.1\r\n".to_vec();
        big.extend(std::iter::repeat_n(b'x', MAX_HEAD + 2));
        assert!(Request::parse_bytes(&big, MAX_BODY).is_err());
    }

    #[test]
    fn continue_is_awaited_only_for_a_whole_head_with_body_missing() {
        let raw = b"POST / HTTP/1.1\r\nExpect: 100-Continue\r\nContent-Length: 4\r\n\r\nab";
        let head = raw.len() - 2;
        assert!(
            !Request::awaits_continue(&raw[..head - 1], MAX_BODY),
            "head cut"
        );
        assert!(Request::awaits_continue(&raw[..head], MAX_BODY));
        assert!(Request::awaits_continue(raw, MAX_BODY), "half the body");
        assert!(
            !Request::awaits_continue(
                b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\nabcd",
                MAX_BODY
            ),
            "body whole"
        );
        assert!(!Request::awaits_continue(&raw[..head], 3), "413 instead");
        let plain = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n";
        assert!(!Request::awaits_continue(plain, MAX_BODY), "nobody asked");
    }

    #[test]
    fn keep_alive_is_explicit_opt_in() {
        let raw = b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        let (r, _) = Request::parse_bytes(raw, MAX_BODY).unwrap().unwrap();
        assert!(r.wants_keep_alive());
        let raw = b"GET / HTTP/1.1\r\n\r\n";
        let (r, _) = Request::parse_bytes(raw, MAX_BODY).unwrap().unwrap();
        assert!(!r.wants_keep_alive(), "no header means close");
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (r, _) = Request::parse_bytes(raw, MAX_BODY).unwrap().unwrap();
        assert!(!r.wants_keep_alive());
    }

    #[test]
    fn write_into_picks_connection_header() {
        let r = Response::text("hi");
        let mut ka = Vec::new();
        r.write_into(&mut ka, true);
        let s = String::from_utf8(ka).unwrap();
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\nhi"));
        let mut cl = Vec::new();
        r.write_into(&mut cl, false);
        assert!(String::from_utf8(cl)
            .unwrap()
            .contains("Connection: close\r\n"));
    }

    #[test]
    fn synthetic_requests() {
        let r = Request::synthetic(Method::Post, "/api/run?seed=4", b"{}")
            .with_header("Cookie", "sid=1");
        assert_eq!(r.query, "seed=4");
        assert_eq!(r.header("cookie"), Some("sid=1"));
    }
}
