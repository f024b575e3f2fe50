//! # httpd — a hand-rolled HTTP/1.1 server substrate
//!
//! "The means of remote access to the cluster resources are provided by the
//! use of a web browser" (§I). No HTTP framework is on the allowed
//! dependency list, so this crate implements the slice of HTTP/1.1 the
//! portal needs, from `std::net` up:
//!
//! * [`http`] — incremental request parsing (one parser for both
//!   engines, capped at `http::MAX_HEAD` and a body limit) / response
//!   serialization, status codes;
//! * [`router`] — method + path-pattern routing with `:param` captures;
//! * [`server`] — the front end: an epoll reactor with an M:N green-task
//!   worker pool where supported, thread-per-connection elsewhere, with
//!   graceful shutdown either way;
//! * [`sys`] — raw epoll/eventfd readiness primitives (no `libc`);
//! * [`wheel`] — the timer wheel enforcing per-connection deadlines;
//! * [`json`] — a JSON value type, parser and serializer (RFC 8259 subset:
//!   no surrogate-pair escapes);
//! * [`forms`] — query strings, urlencoded bodies, cookies;
//! * [`html`] — escaping and tiny page-assembly helpers.

pub mod forms;
pub mod html;
pub mod http;
pub mod json;
mod reactor;
pub mod router;
pub mod server;
pub mod sys;
pub mod test_support;
pub mod wheel;

pub use http::{Method, Request, Response, Status};
pub use json::Json;
pub use router::Router;
pub use server::{Engine, Server, ServerConfig, ServerHandle};
