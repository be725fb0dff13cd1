//! Minimal async networking for the measurement boundary: a from-scratch
//! HTTP/1.1 server and client over tokio, token-bucket rate limiting, and
//! retry with backoff.
//!
//! The explorer API (server side) and the collector (client side) exercise
//! the paper's data-collection methodology over a real TCP socket.

#![warn(missing_docs)]

pub mod breaker;
pub mod client;
pub mod http;
pub mod metrics;
pub mod ratelimit;
pub mod retry;
pub mod server;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{ClientError, ClientTimeouts, HttpClient, PoolStats};
pub use http::{HttpError, Method, Request, Response, WireFault};
pub use metrics::metrics_response;
pub use ratelimit::TokenBucket;
pub use retry::{retry, retry_classified, BackoffSchedule, RetryClass, RetryOutcome, RetryPolicy};
pub use server::{Router, Server};
