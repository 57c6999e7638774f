//! The load generator: `POST /infer` over keep-alive loopback TCP.
//!
//! One process, at most two sender threads ("lanes"), one connection per
//! lane with `TCP_NODELAY` set. Every request is encoded to bytes before
//! the clock starts. An open-loop phase sends request `i` on lane
//! `i % lanes` at `start + i / rate` whether or not earlier answers have
//! come back, and times each answer **from the instant the request was
//! due**, so a stall charges the requests queued behind it; how late the
//! generator itself ran is reported beside the latencies. A closed-loop
//! phase keeps one request in flight per client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use saber_core::json::{self, JsonValue};

use crate::stats;

/// The generator marks a run `noisy` when it ran later than this.
pub const NOISY_LATE_US: f64 = 50_000.0;

/// The HTTP bytes of one `POST /infer` for `(words, seed)`.
pub fn encode_infer_request(words: &[u32], seed: u64) -> Vec<u8> {
    let body = infer_body(words, seed);
    let mut request = format!(
        "POST /infer HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    request
}

/// The JSON body of one `/infer` request.
pub fn infer_body(words: &[u32], seed: u64) -> String {
    let ids: Vec<String> = words.iter().map(u32::to_string).collect();
    format!("{{\"words\":[{}],\"seed\":{seed}}}", ids.join(","))
}

pub const HEALTHZ_REQUEST: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";

/// One keep-alive connection.
#[derive(Debug)]
pub struct Lane {
    reader: BufReader<TcpStream>,
}

impl Lane {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Lane> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Lane {
            reader: BufReader::with_capacity(64 << 10, stream),
        })
    }

    /// Sends `request` and reads the whole reply into `body` (cleared
    /// first). Returns the status code.
    pub fn exchange(&mut self, request: &[u8], body: &mut Vec<u8>) -> std::io::Result<u16> {
        self.reader.get_mut().write_all(request)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("no status line"))?;
        let mut content_length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = content_length.ok_or_else(|| bad("no Content-Length"))?;
        if length > 64 << 20 {
            return Err(bad("reply larger than 64 MiB"));
        }
        body.clear();
        body.resize(length, 0);
        self.reader.read_exact(body)?;
        Ok(status)
    }
}

/// θ (as `f32` bits) and the snapshot version of one `/infer` reply.
pub fn parse_infer_reply(body: &[u8]) -> Result<(Vec<u32>, u64), String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let doc = json::parse(text).map_err(|e| format!("reply does not parse: {e}"))?;
    let theta = doc
        .get("theta")
        .and_then(JsonValue::as_array)
        .ok_or("reply has no theta")?
        .iter()
        .map(|v| v.as_f64().map(|x| (x as f32).to_bits()))
        .collect::<Option<Vec<u32>>>()
        .ok_or("theta holds a non-number")?;
    let version = doc
        .get("snapshot_version")
        .and_then(JsonValue::as_u64)
        .ok_or("reply has no snapshot_version")?;
    Ok((theta, version))
}

/// The `snapshot_version` of a reply without parsing its θ: the member
/// follows the θ array, so search from the end.
pub fn reply_version(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"snapshot_version\":";
    let at = body.windows(KEY.len()).rposition(|w| w == KEY)? + KEY.len();
    let digits: Vec<u8> = body[at..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// One request's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Position in the phase's send order.
    pub order: usize,
    /// Index into the request list.
    pub index: usize,
    /// Reply time minus due time (open loop) or minus send time (closed).
    pub latency_us: f64,
    /// Send time minus due time; 0 in a closed loop.
    pub late_us: f64,
    /// HTTP status; 0 when the exchange itself failed.
    pub status: u16,
    pub snapshot_version: u64,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseOutcome {
    pub samples: Vec<Sample>,
    pub wall: Duration,
}

impl PhaseOutcome {
    /// Appends a later segment of the same phase: samples add up, and so
    /// does the time the clock ran.
    pub fn extend(&mut self, later: PhaseOutcome) {
        self.samples.extend(later.samples);
        self.wall += later.wall;
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok()).count() as u64
    }

    pub fn overloaded(&self) -> u64 {
        self.samples.iter().filter(|s| s.status == 429).count() as u64
    }

    /// Latencies of answered requests, ascending. A failed request has no
    /// latency; it is counted in [`PhaseOutcome::failed`] and misses any
    /// limit.
    pub fn latencies_us(&self) -> Vec<f64> {
        let ok: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| s.latency_us)
            .collect();
        stats::sorted(&ok)
    }

    pub fn lateness_us(&self) -> Vec<f64> {
        let late: Vec<f64> = self.samples.iter().map(|s| s.late_us).collect();
        stats::sorted(&late)
    }

    /// Tokens in answered requests per second of the phase's wall time.
    pub fn tokens_per_s(&self, request_tokens: &[usize]) -> f64 {
        let tokens: usize = self
            .samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| request_tokens[s.index])
            .sum();
        tokens as f64 / self.wall.as_secs_f64()
    }
}

/// When request `i` of an open-loop phase is due, relative to its start.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// The lane that owns request `i`.
pub fn lane_of(i: usize, lanes: usize) -> usize {
    i % lanes
}

/// How many requests an open-loop phase of `seconds` at `rate` sends.
pub fn open_loop_count(rate: f64, seconds: f64) -> usize {
    (rate * seconds).floor() as usize
}

fn run_exchange(
    lane: &mut Lane,
    addr: SocketAddr,
    request: &[u8],
    body: &mut Vec<u8>,
) -> (u16, u64) {
    match lane.exchange(request, body) {
        Ok(status) => (status, reply_version(body).unwrap_or(0)),
        Err(_) => {
            // The connection is in an unknown state: replace it so one
            // failure does not fail every later request on the lane.
            if let Ok(fresh) = Lane::connect(addr) {
                *lane = fresh;
            }
            (0, 0)
        }
    }
}

/// Opens `n` connections, runs `drive(lane index, lane, phase start)` on a
/// thread per connection, and gathers the samples with the wall time from
/// the phase start to the last thread's end.
fn on_lanes(
    addr: SocketAddr,
    n: usize,
    drive: impl Fn(usize, &mut Lane, Instant) -> Vec<Sample> + Sync,
) -> std::io::Result<PhaseOutcome> {
    let mut connections = (0..n)
        .map(|_| Lane::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let drive = &drive;
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .enumerate()
            .map(|(id, lane)| scope.spawn(move || drive(id, lane, start)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a sender thread panicked"))
            .collect()
    });
    Ok(PhaseOutcome {
        samples,
        wall: start.elapsed(),
    })
}

/// Sends `count` requests at a fixed `rate` over `lanes` connections,
/// cycling through `requests`, and stops early once `stop` returns true
/// (checked before each send).
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    first: usize,
    count: usize,
    rate: f64,
    lanes: usize,
    stop: &(dyn Fn() -> bool + Sync),
) -> std::io::Result<PhaseOutcome> {
    on_lanes(addr, lanes, |lane_id, lane, start| {
        let mut samples = Vec::new();
        let mut body = Vec::with_capacity(64 << 10);
        for i in (0..count).filter(|&i| lane_of(i, lanes) == lane_id) {
            let due = start + due_offset(i, rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if stop() {
                break;
            }
            let index = (first + i) % requests.len();
            let sent = Instant::now();
            let (status, snapshot_version) = run_exchange(lane, addr, &requests[index], &mut body);
            let done = Instant::now();
            samples.push(Sample {
                order: i,
                index,
                latency_us: (done - due).as_secs_f64() * 1e6,
                late_us: (sent - due).as_secs_f64() * 1e6,
                status,
                snapshot_version,
            });
        }
        samples
    })
}

/// `clients` connections each keep one request in flight for `duration`,
/// client `c` walking `requests` from `first + c` in steps of `clients`.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    first: usize,
    clients: usize,
    duration: Duration,
) -> std::io::Result<PhaseOutcome> {
    on_lanes(addr, clients, |client, lane, start| {
        let mut samples = Vec::new();
        let mut body = Vec::with_capacity(64 << 10);
        let mut i = first + client;
        while start.elapsed() < duration {
            let index = i % requests.len();
            let sent = Instant::now();
            let (status, snapshot_version) = run_exchange(lane, addr, &requests[index], &mut body);
            samples.push(Sample {
                order: i - first,
                index,
                latency_us: sent.elapsed().as_secs_f64() * 1e6,
                late_us: 0.0,
                status,
                snapshot_version,
            });
            i += clients;
        }
        samples
    })
}

/// Whether a reply's θ bits are exactly the `f32` bits of `reference`.
pub fn same_bits(theta_bits: &[u32], reference: &[f32]) -> bool {
    theta_bits.len() == reference.len()
        && theta_bits
            .iter()
            .zip(reference)
            .all(|(bits, x)| *bits == x.to_bits())
}

/// Sends each of `indices` once on one connection and returns the parsed
/// replies — the untimed pass the output checks read.
pub fn fetch_replies(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    indices: &[usize],
) -> Result<Vec<(Vec<u32>, u64)>, String> {
    let mut lane = Lane::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut body = Vec::new();
    indices
        .iter()
        .map(|&i| {
            let status = lane
                .exchange(&requests[i], &mut body)
                .map_err(|e| format!("request {i}: {e}"))?;
            if status != 200 {
                return Err(format!("request {i} answered {status}"));
            }
            parse_infer_reply(&body)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced_and_lanes_alternate() {
        assert_eq!(due_offset(0, 300.0), Duration::ZERO);
        assert_eq!(due_offset(300, 300.0), Duration::from_secs(1));
        assert_eq!(due_offset(3, 600.0), Duration::from_micros(5_000));
        let lanes: Vec<usize> = (0..6).map(|i| lane_of(i, 2)).collect();
        assert_eq!(lanes, [0, 1, 0, 1, 0, 1]);
        assert_eq!(lane_of(5, 1), 0);
        assert_eq!(open_loop_count(300.0, 12.0), 3600);
        assert_eq!(open_loop_count(150.0, 0.01), 1);
    }

    #[test]
    fn request_bytes_frame_the_json_body() {
        let bytes = encode_infer_request(&[3, 1, 4], 42);
        let text = String::from_utf8(bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /infer HTTP/1.1\r\n"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert_eq!(body, "{\"words\":[3,1,4],\"seed\":42}");
    }

    #[test]
    fn replies_parse_to_bits_and_version() {
        let body =
            br#"{"theta":[0.25,0.75],"dominant_topic":1,"snapshot_version":12,"n_oov":0,"seed":9}"#;
        let (theta, version) = parse_infer_reply(body).unwrap();
        assert_eq!(theta, vec![0.25f32.to_bits(), 0.75f32.to_bits()]);
        assert_eq!(version, 12);
        assert_eq!(reply_version(body), Some(12));
        assert_eq!(reply_version(b"{}"), None);
        assert!(parse_infer_reply(b"{\"theta\":[]}").is_err());
    }

    #[test]
    fn failed_requests_carry_no_latency_and_no_tokens() {
        let sample = |index, status, latency_us| Sample {
            order: index,
            index,
            latency_us,
            late_us: 0.0,
            status,
            snapshot_version: 1,
        };
        let outcome = PhaseOutcome {
            samples: vec![
                sample(0, 200, 30.0),
                sample(1, 429, 5.0),
                sample(2, 200, 10.0),
            ],
            wall: Duration::from_secs(2),
        };
        assert_eq!(outcome.attempted(), 3);
        assert_eq!(outcome.failed(), 1);
        assert_eq!(outcome.overloaded(), 1);
        assert_eq!(outcome.latencies_us(), vec![10.0, 30.0]);
        assert_eq!(outcome.tokens_per_s(&[100, 1000, 300]), 200.0);
    }
}
