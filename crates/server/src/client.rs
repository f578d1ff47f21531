//! A blocking client for the wire protocol — used by the loopback tests and
//! anything else that wants typed access to a running `cqa-serverd`.
//! Serving throughput is measured by perfbench, whose `--trace 1` run also
//! reports the span knob's cost as `obs.trace_overhead_pct`.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use cqa_db::family::InstanceFamily;
use cqa_db::instance::DatabaseInstance;

use crate::proto::{parse_reply, ErrorCode, WireError};

/// Client-side failures: transport errors, typed server errors, or replies
/// the client could not interpret.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(std::io::Error),
    /// The server replied `ERR <code> <message>`.
    Server(WireError),
    /// The server replied something this client does not understand.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl ClientError {
    /// True when the command was rejected by backpressure (`ERR busy`): the
    /// command had no effect and can be retried on the same connection.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Server(WireError {
                code: ErrorCode::Busy,
                ..
            })
        )
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Server(e)
    }
}

/// Summary of a successful `LOAD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSummary {
    /// Requests (deltas) now resident for the tenant.
    pub requests: usize,
    /// Facts in the tenant's shared prefix.
    pub prefix_facts: usize,
    /// Tenants the server evicted to make room.
    pub evicted: usize,
}

/// One connection to a server. Methods are synchronous: each writes one
/// command and blocks for its reply (the protocol is strictly
/// request/reply per connection).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Small request/reply frames: Nagle's algorithm would add delayed-ACK
        // stalls (tens of ms per command) for nothing.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Writes `line` (plus newline, plus optional raw payload) as one frame
    /// and returns the `OK` reply's payload.
    fn roundtrip(&mut self, line: &str, payload: Option<&str>) -> Result<String, ClientError> {
        let mut frame = String::with_capacity(line.len() + 1 + payload.map_or(0, str::len));
        frame.push_str(line);
        frame.push('\n');
        if let Some(payload) = payload {
            frame.push_str(payload);
        }
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        Ok(parse_reply(reply.trim_end_matches(['\r', '\n']))?)
    }

    /// Loads (or replaces) a tenant's instance family on the server,
    /// shipping it through the sectioned text codec.
    pub fn load_family(
        &mut self,
        tenant: &str,
        family: &InstanceFamily,
    ) -> Result<LoadSummary, ClientError> {
        let text = cqa_db::codec::family_to_text(family);
        let payload = self.roundtrip(&format!("LOAD {tenant} {}", text.len()), Some(&text))?;
        let fields = parse_kv(payload.strip_prefix("LOADED ").unwrap_or(&payload));
        let field = |k: &str| -> Result<usize, ClientError> {
            fields
                .get(k)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| ClientError::Protocol(format!("LOADED reply missing {k}")))
        };
        Ok(LoadSummary {
            requests: field("requests")?,
            prefix_facts: field("prefix_facts")?,
            evicted: field("evicted")?,
        })
    }

    /// Parses an `APPENDED`/`RETRACTED` payload into the request's
    /// post-mutation delta fact count.
    fn parse_mutated(expect: &str, payload: &str) -> Result<usize, ClientError> {
        let body = payload
            .strip_prefix(expect)
            .ok_or_else(|| ClientError::Protocol(format!("expected {expect}, got {payload:?}")))?;
        parse_kv(body.trim_start())
            .get("facts")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("{expect} reply missing facts")))
    }

    /// Adds the instance's facts (shipped in the plain text codec) to one
    /// request's delta; returns the facts now in that delta.
    pub fn append(
        &mut self,
        tenant: &str,
        request: usize,
        facts: &DatabaseInstance,
    ) -> Result<usize, ClientError> {
        let text = cqa_db::codec::to_text(facts);
        let payload = self.roundtrip(
            &format!("APPEND {tenant} {request} {}", text.len()),
            Some(&text),
        )?;
        Client::parse_mutated("APPENDED", &payload)
    }

    /// Removes the instance's facts from one request's delta (facts not in
    /// the delta are ignored); returns the facts now in that delta.
    pub fn retract(
        &mut self,
        tenant: &str,
        request: usize,
        facts: &DatabaseInstance,
    ) -> Result<usize, ClientError> {
        let text = cqa_db::codec::to_text(facts);
        let payload = self.roundtrip(
            &format!("RETRACT {tenant} {request} {}", text.len()),
            Some(&text),
        )?;
        Client::parse_mutated("RETRACTED", &payload)
    }

    /// Sends one raw command line (no payload) and returns the `OK` reply's
    /// payload — an escape hatch for tests exercising protocol edges (for
    /// example `CRASH` under fault injection).
    pub fn raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.roundtrip(line, None)
    }

    fn parse_answers(payload: &str) -> Result<Vec<bool>, ClientError> {
        let bits = payload
            .strip_prefix("ANSWERS ")
            .ok_or_else(|| ClientError::Protocol(format!("expected ANSWERS, got {payload:?}")))?;
        if bits == "-" {
            return Ok(Vec::new());
        }
        bits.chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                other => Err(ClientError::Protocol(format!("bad answer bit {other:?}"))),
            })
            .collect()
    }

    /// Decides a query word against every request of the tenant's family;
    /// one answer per request, in request order.
    pub fn query(&mut self, tenant: &str, word: &str) -> Result<Vec<bool>, ClientError> {
        let payload = self.roundtrip(&format!("QUERY {tenant} {word}"), None)?;
        Client::parse_answers(&payload)
    }

    /// Decides a query word against an explicit subset of the tenant's
    /// requests; one answer per id, in the given order.
    pub fn batch(
        &mut self,
        tenant: &str,
        requests: &[usize],
        word: &str,
    ) -> Result<Vec<bool>, ClientError> {
        let ids = requests
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<String>>()
            .join(",");
        let payload = self.roundtrip(&format!("BATCH {tenant} {ids} {word}"), None)?;
        Client::parse_answers(&payload)
    }

    fn stats_payload(&mut self, line: &str) -> Result<BTreeMap<String, String>, ClientError> {
        let payload = self.roundtrip(line, None)?;
        let body = payload
            .strip_prefix("STATS")
            .ok_or_else(|| ClientError::Protocol(format!("expected STATS, got {payload:?}")))?;
        Ok(parse_kv(body.trim_start()))
    }

    /// Server-wide counters (registry + session), as a key → value map.
    pub fn stats(&mut self) -> Result<BTreeMap<String, String>, ClientError> {
        self.stats_payload("STATS")
    }

    /// One resident tenant's counters, as a key → value map.
    pub fn tenant_stats(&mut self, tenant: &str) -> Result<BTreeMap<String, String>, ClientError> {
        self.stats_payload(&format!("STATS {tenant}"))
    }

    /// Scrapes the server's metrics as Prometheus-style text. The reply is
    /// length-framed (`OK METRICS <nbytes>` then exactly that many bytes),
    /// so the exposition may span many lines.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let payload = self.roundtrip("METRICS", None)?;
        let nbytes: usize = payload
            .strip_prefix("METRICS ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("expected METRICS, got {payload:?}")))?;
        let mut body = vec![0u8; nbytes];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map_err(|_| ClientError::Protocol("METRICS body is not UTF-8".into()))
    }

    /// Drops a tenant's residency.
    pub fn evict(&mut self, tenant: &str) -> Result<(), ClientError> {
        self.roundtrip(&format!("EVICT {tenant}"), None)?;
        Ok(())
    }

    /// Closes the connection cleanly.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.roundtrip("QUIT", None)?;
        Ok(())
    }
}

/// Parses `k=v k=v …` into a map (values never contain spaces in this
/// protocol).
fn parse_kv(body: &str) -> BTreeMap<String, String> {
    body.split_whitespace()
        .filter_map(|pair| pair.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}
