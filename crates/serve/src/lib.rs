//! # pumpkin-serve
//!
//! `pumpkind`: a persistent repair service over the Pumpkin Pi engine.
//!
//! The paper's workflow is batch — configure an equivalence, repair a
//! module, exit. This crate keeps the expensive parts resident: the
//! standard-library environment is built once and cloned (cheaply —
//! terms are shared) per connection, configured equivalences are cached
//! per session, and repaired declarations persist across *processes*
//! through the content-addressed lift cache (`pumpkin_core::persist`).
//!
//! The protocol is newline-delimited JSON-RPC over TCP (and optionally a
//! Unix socket): see [`proto`] for framing and error codes, [`Session`]
//! for the method set (`session::METHODS`), and [`Server`] for the
//! daemon. The server is a bounded worker pool:
//! connection threads parse frames and feed a bounded work queue, and a
//! fixed set of workers — each owning a long-lived session whose
//! configuration cache survives across connections — drains it. Busy
//! backpressure is per-request (`busy` when the queue is full) and
//! per-connection (session cap), each refusal naming its layer in the
//! error's `data` detail, and shutdown drains the queued backlog before
//! joining. Everything is `std`-only.
//!
//! Every accepted frame gets a lifecycle request id (echoed as `req_id`
//! in the reply) and per-stage monotonic timestamps; the server layer
//! records per-method latency/queue-wait histograms into a sharded
//! [`pumpkin_core::trace::serve_stats`] registry that the `stats` RPC
//! snapshots (DESIGN.md §17). `ServerConfig::slow_ms` turns on a
//! structured JSONL slow-request log with the per-stage breakdown.
//!
//! Replies are deterministic by construction — each request runs against
//! a throwaway clone of the configured environment — and requests can
//! additionally ask for `"deterministic": true` to zero the wall-clock
//! fields, which makes daemon output byte-identical to one-shot runs
//! (the golden-transcript and concurrency tests rely on this).

pub mod client;
pub mod proto;
pub mod server;
pub mod session;

pub use client::{Client, ClientError};
pub use server::{Server, ServerConfig};
pub use session::{Control, Session};
