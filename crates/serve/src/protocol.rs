//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — travels as one **frame**: a
//! 4-byte big-endian payload length followed by the payload, capped at
//! [`MAX_FRAME`] bytes. All multi-byte integers are big-endian; losses
//! cross the wire as IEEE-754 bit patterns (`f64::to_bits`), so a
//! served winner is comparable *bit-for-bit* against a direct engine
//! call — the protocol never rounds through text.
//!
//! Request payload:
//!
//! ```text
//! opcode:u8
//!   1 = Search    tenant:u64  deadline_ms:u32 (0 = none)  workload
//!   2 = BumpEpoch tenant:u64
//!   3 = Metrics                                 (scrape a snapshot)
//! workload: tag:u8
//!   1 = Chain  choices:u8                      (compiled λC decide chain)
//!   2 = Game   branching:u8 depth:u8 seed:u64  (alternating game tree)
//! ```
//!
//! Response payload:
//!
//! ```text
//! status:u8
//!   0 = Ok          index:u64  loss:u64 (f64 bits)  stats:WIRE_STATS_FIELDS×u64
//!   1 = Timeout     has_partial:u8  [index:u64  loss:u64]
//!   2 = Busy
//!   3 = Malformed   len:u16  msg:utf8
//!   5 = EpochBumped epoch:u64
//!   6 = Metrics     truncated:u8  count:u16  count × metric
//! metric: kind:u8  name_len:u8  name:utf8
//!   0 = counter    value:u64
//!   1 = gauge      value:u64 (i64 two's complement)
//!   2 = histogram  nonzero:u8  nonzero × (bucket:u8  count:u64)
//! ```
//!
//! A `Metrics` response is built under the frame budget: whole metric
//! entries are emitted in snapshot (name) order until the next one
//! would overflow [`MAX_FRAME`], and `truncated` records whether any
//! were dropped. Histogram buckets travel sparse (nonzero only) and
//! must be strictly ascending — the decoder rejects anything else, so
//! a hostile peer cannot smuggle duplicate buckets past the
//! reassembly adds.
//!
//! Decoding is total: every error path is a `Result`, never a panic, so
//! a malformed frame costs the client an error response — not the
//! server its accept loop.

use selc_obs::{HistogramSnapshot, MetricValue, MetricsSnapshot, HISTOGRAM_BUCKETS};
use std::io::{self, Read, Write};

/// Hard cap on a frame payload. Every legal message fits in a fraction
/// of this; a larger announced length is rejected *before* allocation,
/// so a hostile header cannot balloon server memory.
pub const MAX_FRAME: usize = 4096;

/// Longest metric name a [`Response::Metrics`] frame carries. The
/// registry's names are short dotted paths (`cache.shard_lock_wait_ns`
/// is about the ceiling); anything longer is dropped at encode time
/// and rejected at decode time.
pub const MAX_METRIC_NAME: usize = 128;

/// A search workload the server can run against a tenant's caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `lambda_c::testgen::deep_decide_chain(choices)` compiled and
    /// searched by the engine's tree walk (space `2^choices`).
    Chain {
        /// Nested decisions; validated to `1..=24`.
        choices: u8,
    },
    /// `selc_games::GameTree::random(branching, depth, seed)` solved by
    /// flagged-table alpha-beta.
    Game {
        /// Moves per ply; validated to `1..=8`.
        branching: u8,
        /// Plies; validated so `branching^depth <= 2^20`.
        depth: u8,
        /// Leaf-generation seed (part of the tenant's game key).
        seed: u64,
    },
}

/// A client request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run `workload` for `tenant`, cancelling after `deadline_ms`
    /// milliseconds (0 = no deadline).
    Search {
        /// Tenant whose warm caches serve this search.
        tenant: u64,
        /// Milliseconds until the search's `CancelToken` fires; 0 never.
        deadline_ms: u32,
        /// What to search.
        workload: Workload,
    },
    /// Invalidate every cache of `tenant` (and only `tenant`).
    BumpEpoch {
        /// Tenant to invalidate.
        tenant: u64,
    },
    /// Scrape the server's process-wide metrics snapshot.
    Metrics,
}

/// Number of `u64` fields a [`WireStats`] occupies on the wire.
///
/// Kept in compile-time agreement with the struct itself: every field
/// is a `u64` and `#[repr(Rust)]` has nothing to pad, so the assert
/// below trips the build the moment someone adds a field without
/// revisiting `fields`/`from_fields` and this count.
pub const WIRE_STATS_FIELDS: usize = 12;

const _: () = assert!(
    WIRE_STATS_FIELDS * 8 == std::mem::size_of::<WireStats>(),
    "WIRE_STATS_FIELDS disagrees with the WireStats field count"
);

/// Engine telemetry on the wire: [`selc_engine::SearchStats`] flattened
/// to [`WIRE_STATS_FIELDS`] `u64`s (threads widened) so the frame
/// layout is fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror SearchStats/CacheStats/SummaryStats
pub struct WireStats {
    pub evaluated: u64,
    pub pruned: u64,
    pub threads: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    pub cache_evictions: u64,
    /// Subtrees answered by an exact summary: the prefix hits plus the
    /// state hits (`SummaryStats::exact_hits`, which counts both).
    pub summary_exact_hits: u64,
    pub summary_bound_hits: u64,
    pub summary_misses: u64,
    pub summary_exact_installs: u64,
    pub summary_bound_installs: u64,
}

impl WireStats {
    fn fields(&self) -> [u64; WIRE_STATS_FIELDS] {
        [
            self.evaluated,
            self.pruned,
            self.threads,
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.cache_evictions,
            self.summary_exact_hits,
            self.summary_bound_hits,
            self.summary_misses,
            self.summary_exact_installs,
            self.summary_bound_installs,
        ]
    }

    fn from_fields(f: [u64; WIRE_STATS_FIELDS]) -> WireStats {
        WireStats {
            evaluated: f[0],
            pruned: f[1],
            threads: f[2],
            cache_hits: f[3],
            cache_misses: f[4],
            cache_insertions: f[5],
            cache_evictions: f[6],
            summary_exact_hits: f[7],
            summary_bound_hits: f[8],
            summary_misses: f[9],
            summary_exact_installs: f[10],
            summary_bound_installs: f[11],
        }
    }
}

/// One metric's value on the wire. Histograms travel sparse: only the
/// nonzero log2 buckets, as strictly ascending `(bucket, count)`
/// pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Signed level (queue depth, live watchers).
    Gauge(i64),
    /// Sparse log2 histogram: `(bucket index, count)`, ascending,
    /// counts nonzero, indices `< HISTOGRAM_BUCKETS`.
    Histogram(Vec<(u8, u64)>),
}

/// A metrics snapshot shaped for the wire: name-sorted entries, whole
/// metrics only, and a flag recording whether the frame budget forced
/// any to be dropped. Build one with [`WireMetrics::from_snapshot`] —
/// that constructor owns the budget arithmetic, which is what lets
/// `Response::encode` promise the result fits a frame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// True when the snapshot did not fit [`MAX_FRAME`] whole and the
    /// tail (in name order) was dropped.
    pub truncated: bool,
    /// `(name, value)` in ascending name order, like the snapshot it
    /// came from.
    pub entries: Vec<(String, WireMetricValue)>,
}

/// Encoded size of one metric entry; `None` if it can never go on the
/// wire (name too long for the `u8` length or the [`MAX_METRIC_NAME`]
/// cap).
fn metric_wire_size(name: &str, value: &WireMetricValue) -> Option<usize> {
    if name.is_empty() || name.len() > MAX_METRIC_NAME {
        return None;
    }
    let body = match value {
        WireMetricValue::Counter(_) | WireMetricValue::Gauge(_) => 8,
        WireMetricValue::Histogram(buckets) => 1 + 9 * buckets.len(),
    };
    Some(2 + name.len() + body)
}

impl WireMetrics {
    /// Shapes a [`MetricsSnapshot`] for the wire. Entries are taken in
    /// snapshot (name) order until the next whole one would overflow
    /// the frame; `truncated` records whether anything was dropped.
    /// Stable prefix-of-sorted-order truncation means two scrapes of
    /// the same registry disagree only in values, never in which
    /// metrics they carry.
    #[must_use]
    pub fn from_snapshot(snap: &MetricsSnapshot) -> WireMetrics {
        // status + truncated + count, then whole entries while they fit.
        let mut budget = MAX_FRAME - (1 + 1 + 2);
        let mut out = WireMetrics::default();
        for (name, value) in &snap.entries {
            let value = match value {
                MetricValue::Counter(n) => WireMetricValue::Counter(*n),
                MetricValue::Gauge(level) => WireMetricValue::Gauge(*level),
                MetricValue::Histogram(h) => {
                    let sparse = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| **n > 0)
                        // Bucket indices are < HISTOGRAM_BUCKETS = 65;
                        // clamping (instead of panicking) folds an
                        // impossible overflow into the top bucket.
                        .map(|(i, n)| (u8::try_from(i).unwrap_or(64), *n))
                        .collect();
                    WireMetricValue::Histogram(sparse)
                }
            };
            let Some(size) = metric_wire_size(name, &value).filter(|s| *s <= budget) else {
                out.truncated = true;
                break;
            };
            budget -= size;
            out.entries.push((name.clone(), value));
        }
        out
    }

    /// Reassembles a [`MetricsSnapshot`] so the caller gets the full
    /// accessor surface back (`counter`, `histogram`, `percentile`,
    /// `render_text`) instead of a wire shape.
    #[must_use]
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, value)| {
                let value = match value {
                    WireMetricValue::Counter(n) => MetricValue::Counter(*n),
                    WireMetricValue::Gauge(level) => MetricValue::Gauge(*level),
                    WireMetricValue::Histogram(sparse) => {
                        let mut h = HistogramSnapshot::default();
                        for (bucket, count) in sparse {
                            h.buckets[*bucket as usize] = *count;
                        }
                        MetricValue::Histogram(h)
                    }
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { entries }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.truncated));
        // `from_snapshot` budgets entries far below these caps; for a
        // hand-built value the encode degrades by dropping the excess
        // (keeping count and body consistent) rather than panicking.
        let encodable: Vec<_> = self
            .entries
            .iter()
            .filter(|(name, _)| u8::try_from(name.len()).is_ok())
            .take(usize::from(u16::MAX))
            .collect();
        let count = u16::try_from(encodable.len()).unwrap_or(u16::MAX);
        out.extend_from_slice(&count.to_be_bytes());
        for (name, value) in encodable {
            let name_len = u8::try_from(name.len()).unwrap_or(u8::MAX);
            let kind = match value {
                WireMetricValue::Counter(_) => 0u8,
                WireMetricValue::Gauge(_) => 1,
                WireMetricValue::Histogram(_) => 2,
            };
            out.push(kind);
            out.push(name_len);
            out.extend_from_slice(name.as_bytes());
            match value {
                WireMetricValue::Counter(n) => out.extend_from_slice(&n.to_be_bytes()),
                WireMetricValue::Gauge(level) => {
                    out.extend_from_slice(&level.to_be_bytes());
                }
                WireMetricValue::Histogram(sparse) => {
                    let buckets = u8::try_from(sparse.len()).unwrap_or(u8::MAX);
                    out.push(buckets);
                    for (bucket, n) in sparse.iter().take(usize::from(buckets)) {
                        out.push(*bucket);
                        out.extend_from_slice(&n.to_be_bytes());
                    }
                }
            }
        }
    }

    fn decode_from(c: &mut Cursor<'_>) -> Result<WireMetrics, String> {
        let truncated = match c.u8("truncated flag")? {
            0 => false,
            1 => true,
            b => return Err(format!("bad truncated flag {b}")),
        };
        let count = c.u16("metric count")? as usize;
        let mut entries = Vec::new(); // sized by the cursor, not the header
        for i in 0..count {
            let kind = c.u8("metric kind")?;
            let name_len = c.u8("metric name length")? as usize;
            if name_len == 0 || name_len > MAX_METRIC_NAME {
                return Err(format!(
                    "metric {i} name length {name_len} out of 1..={MAX_METRIC_NAME}"
                ));
            }
            let name = c.utf8(name_len, "metric name").map_err(|e| format!("metric {i}: {e}"))?;
            let value = match kind {
                0 => WireMetricValue::Counter(c.u64("counter value")?),
                1 => WireMetricValue::Gauge(i64::from_be_bytes(c.take("gauge value")?)),
                2 => {
                    let nonzero = c.u8("histogram bucket count")? as usize;
                    if nonzero > HISTOGRAM_BUCKETS {
                        return Err(format!(
                            "{name}: {nonzero} buckets exceeds {HISTOGRAM_BUCKETS}"
                        ));
                    }
                    let mut sparse: Vec<(u8, u64)> = Vec::with_capacity(nonzero);
                    for _ in 0..nonzero {
                        let bucket = c.u8("histogram bucket index")?;
                        if bucket as usize >= HISTOGRAM_BUCKETS {
                            return Err(format!("{name}: bucket {bucket} out of range"));
                        }
                        if sparse.last().is_some_and(|(prev, _)| *prev >= bucket) {
                            return Err(format!("{name}: buckets not strictly ascending"));
                        }
                        let n = c.u64("histogram bucket value")?;
                        if n == 0 {
                            return Err(format!("{name}: zero count in sparse histogram"));
                        }
                        sparse.push((bucket, n));
                    }
                    WireMetricValue::Histogram(sparse)
                }
                k => return Err(format!("{name}: unknown metric kind {k}")),
            };
            entries.push((name, value));
        }
        Ok(WireMetrics { truncated, entries })
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The search completed; winner and telemetry.
    Ok {
        /// Winning candidate index (leaf index for game trees).
        index: u64,
        /// Winner's loss (game value for trees), bit-exact.
        loss: f64,
        /// This search's telemetry, including the tenant-cache deltas.
        stats: WireStats,
    },
    /// The deadline fired first. Flat/tree searches may carry the best
    /// candidate seen before the abort; minimax never does (a partial
    /// solve has no sound best — see
    /// `GameTree::solve_alphabeta_tt_cancellable`).
    Timeout {
        /// Best `(index, loss)` observed before cancellation, if sound.
        partial: Option<(u64, f64)>,
    },
    /// Admission control refused the connection (too many sessions).
    Busy,
    /// The request frame did not decode or failed validation; the
    /// session stays open.
    Malformed(String),
    /// Epoch bump acknowledged with the tenant's new cache epoch.
    EpochBumped {
        /// The tenant's new epoch.
        epoch: u64,
    },
    /// A metrics scrape: the server's registry snapshot, frame-budgeted.
    Metrics(WireMetrics),
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean EOF *before* a
/// frame's first byte (the peer hung up); EOF anywhere later, an
/// oversized announced length, or any transport error is `Err`.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    let first = loop {
        match r.read(&mut hdr) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => break other?,
        }
    };
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut hdr[first..])?;
    let len = u32::from_be_bytes(hdr) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Writes one length-prefixed frame. Header and payload go out in a
/// *single* write: split across two, Nagle holds the second tiny write
/// hostage to the peer's delayed ACK of the first, turning every
/// microsecond-scale warm request into a ~40ms round-trip.
///
/// # Errors
///
/// Fails with `InvalidInput` if `payload` exceeds [`MAX_FRAME`] —
/// server- and client-built payloads are all far smaller, so an
/// oversized one is a logic error, but the server's no-panic policy
/// reports it as an error instead of killing the session.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).ok().filter(|_| payload.len() <= MAX_FRAME).ok_or_else(
        || {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "outgoing frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                    payload.len()
                ),
            )
        },
    )?;
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&len.to_be_bytes());
    wire.extend_from_slice(payload);
    w.write_all(&wire)?;
    w.flush()
}

/// A little-decoder over a payload: every read is bounds-checked and
/// reports *what* was missing, so truncation errors are diagnosable
/// from the client side.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|e| *e <= self.buf.len());
        let end = end.ok_or_else(|| format!("truncated payload: missing {what}"))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn take<const N: usize>(&mut self, what: &str) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N, what)?);
        Ok(out)
    }

    fn utf8(&mut self, n: usize, what: &str) -> Result<String, String> {
        let bytes = self.bytes(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("non-utf8 {what}"))
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take::<1>(what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_be_bytes(self.take(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_be_bytes(self.take(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_be_bytes(self.take(what)?))
    }

    fn finish(self) -> Result<(), String> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after the message", self.buf.len() - self.at))
        }
    }
}

impl Workload {
    fn encode_into(self, out: &mut Vec<u8>) {
        match self {
            Workload::Chain { choices } => {
                out.push(1);
                out.push(choices);
            }
            Workload::Game { branching, depth, seed } => {
                out.push(2);
                out.push(branching);
                out.push(depth);
                out.extend_from_slice(&seed.to_be_bytes());
            }
        }
    }

    fn decode_from(c: &mut Cursor<'_>) -> Result<Workload, String> {
        match c.u8("workload tag")? {
            1 => Ok(Workload::Chain { choices: c.u8("chain choices")? }),
            2 => Ok(Workload::Game {
                branching: c.u8("game branching")?,
                depth: c.u8("game depth")?,
                seed: c.u64("game seed")?,
            }),
            t => Err(format!("unknown workload tag {t}")),
        }
    }
}

impl Request {
    /// Serialises the request payload (no length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match *self {
            Request::Search { tenant, deadline_ms, workload } => {
                out.push(1);
                out.extend_from_slice(&tenant.to_be_bytes());
                out.extend_from_slice(&deadline_ms.to_be_bytes());
                workload.encode_into(&mut out);
            }
            Request::BumpEpoch { tenant } => {
                out.push(2);
                out.extend_from_slice(&tenant.to_be_bytes());
            }
            Request::Metrics => out.push(3),
        }
        out
    }

    /// Decodes a request payload; the error string is what the server
    /// echoes back in a [`Response::Malformed`].
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let mut c = Cursor { buf: payload, at: 0 };
        let req = match c.u8("opcode")? {
            1 => Request::Search {
                tenant: c.u64("tenant id")?,
                deadline_ms: c.u32("deadline")?,
                workload: Workload::decode_from(&mut c)?,
            },
            2 => Request::BumpEpoch { tenant: c.u64("tenant id")? },
            3 => Request::Metrics,
            op => return Err(format!("unknown opcode {op}")),
        };
        c.finish()?;
        Ok(req)
    }
}

fn encode_msg(out: &mut Vec<u8>, msg: &str) {
    let bytes = msg.as_bytes();
    let take = bytes.len().min(512); // keep even hostile echoes frame-safe
    let mut end = take;
    while end > 0 && !msg.is_char_boundary(end) {
        end -= 1;
    }
    // `end <= take <= 512` by construction, so the conversion cannot
    // actually clamp.
    out.extend_from_slice(&u16::try_from(end).unwrap_or(512).to_be_bytes());
    out.extend_from_slice(&bytes[..end]);
}

impl Response {
    /// Serialises the response payload (no length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        match self {
            Response::Ok { index, loss, stats } => {
                out.push(0);
                out.extend_from_slice(&index.to_be_bytes());
                out.extend_from_slice(&loss.to_bits().to_be_bytes());
                for f in stats.fields() {
                    out.extend_from_slice(&f.to_be_bytes());
                }
            }
            Response::Timeout { partial } => {
                out.push(1);
                match partial {
                    None => out.push(0),
                    Some((index, loss)) => {
                        out.push(1);
                        out.extend_from_slice(&index.to_be_bytes());
                        out.extend_from_slice(&loss.to_bits().to_be_bytes());
                    }
                }
            }
            Response::Busy => out.push(2),
            Response::Malformed(msg) => {
                out.push(3);
                encode_msg(&mut out, msg);
            }
            Response::EpochBumped { epoch } => {
                out.push(5);
                out.extend_from_slice(&epoch.to_be_bytes());
            }
            Response::Metrics(metrics) => {
                out.push(6);
                metrics.encode_into(&mut out);
            }
        }
        out
    }

    /// Decodes a response payload.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let mut c = Cursor { buf: payload, at: 0 };
        let resp = match c.u8("status")? {
            0 => {
                let index = c.u64("winner index")?;
                let loss = f64::from_bits(c.u64("winner loss")?);
                let mut f = [0u64; WIRE_STATS_FIELDS];
                for slot in &mut f {
                    *slot = c.u64("stats field")?;
                }
                Response::Ok { index, loss, stats: WireStats::from_fields(f) }
            }
            1 => {
                let partial = match c.u8("partial flag")? {
                    0 => None,
                    1 => Some((c.u64("partial index")?, f64::from_bits(c.u64("partial loss")?))),
                    b => return Err(format!("bad partial flag {b}")),
                };
                Response::Timeout { partial }
            }
            2 => Response::Busy,
            3 => {
                let len = usize::from(c.u16("message length")?);
                Response::Malformed(c.utf8(len, "message")?)
            }
            5 => Response::EpochBumped { epoch: c.u64("epoch")? },
            6 => Response::Metrics(WireMetrics::decode_from(&mut c)?),
            s => return Err(format!("unknown status {s}")),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    fn roundtrip_response(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()), Ok(resp));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Search {
            tenant: 7,
            deadline_ms: 0,
            workload: Workload::Chain { choices: 12 },
        });
        roundtrip_request(Request::Search {
            tenant: u64::MAX,
            deadline_ms: 1,
            workload: Workload::Game { branching: 3, depth: 5, seed: 42 },
        });
        roundtrip_request(Request::BumpEpoch { tenant: 0 });
        roundtrip_request(Request::Metrics);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Ok {
            index: 3,
            loss: -0.0, // sign bit must survive: losses travel as bits
            stats: WireStats { evaluated: 9, summary_exact_hits: 2, ..WireStats::default() },
        });
        roundtrip_response(Response::Timeout { partial: None });
        roundtrip_response(Response::Timeout { partial: Some((5, f64::INFINITY)) });
        roundtrip_response(Response::Busy);
        roundtrip_response(Response::Malformed("bad".to_owned()));
        roundtrip_response(Response::Malformed("wörse — ünicode".to_owned()));
        roundtrip_response(Response::EpochBumped { epoch: 2 });
        roundtrip_response(Response::Metrics(WireMetrics {
            truncated: true,
            entries: vec![
                ("cache.hits".to_owned(), WireMetricValue::Counter(u64::MAX)),
                ("serve.queue_depth".to_owned(), WireMetricValue::Gauge(-3)),
                (
                    "serve.latency_us.chain".to_owned(),
                    WireMetricValue::Histogram(vec![(0, 1), (7, 2), (64, u64::MAX)]),
                ),
            ],
        }));
        roundtrip_response(Response::Metrics(WireMetrics::default()));
    }

    #[test]
    fn metrics_snapshot_survives_the_wire_and_respects_the_frame_budget() {
        // A realistic snapshot: counter, negative gauge, and a histogram
        // whose sparse wire form must rebuild the same dense buckets.
        let mut hist = HistogramSnapshot::default();
        hist.buckets[0] = 4;
        hist.buckets[6] = 9;
        hist.buckets[64] = 1;
        let snap = MetricsSnapshot {
            entries: vec![
                ("a.count".to_owned(), MetricValue::Counter(17)),
                ("b.level".to_owned(), MetricValue::Gauge(-42)),
                ("c.lat".to_owned(), MetricValue::Histogram(hist)),
            ],
        };
        let wire = WireMetrics::from_snapshot(&snap);
        assert!(!wire.truncated);
        let enc = Response::Metrics(wire.clone()).encode();
        assert!(enc.len() <= MAX_FRAME);
        match Response::decode(&enc).unwrap() {
            Response::Metrics(back) => {
                assert_eq!(back, wire);
                assert_eq!(back.to_snapshot().entries, snap.entries);
            }
            other => panic!("expected Metrics, got {other:?}"),
        }

        // Too many metrics to fit one frame: a whole-entry prefix in
        // name order goes out, the flag records the loss, and the
        // encoding still fits.
        let big = MetricsSnapshot {
            entries: (0..400).map(|i| (format!("m.{i:04}"), MetricValue::Counter(i))).collect(),
        };
        let wire = WireMetrics::from_snapshot(&big);
        assert!(wire.truncated);
        assert!(!wire.entries.is_empty());
        let kept: Vec<&str> = wire.entries.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> =
            big.entries[..kept.len()].iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(kept, expected, "truncation keeps a prefix of name order");
        let enc = Response::Metrics(wire).encode();
        assert!(enc.len() <= MAX_FRAME);
        assert!(matches!(Response::decode(&enc), Ok(Response::Metrics(w)) if w.truncated));
    }

    #[test]
    fn hostile_metrics_payloads_are_rejected() {
        fn decode_metric(entry: &[u8]) -> Result<Response, String> {
            let mut payload = vec![6, 0, 0, 1]; // status, truncated=0, count=1
            payload.extend_from_slice(entry);
            Response::decode(&payload)
        }

        // Empty name.
        let err = decode_metric(&[0, 0]).expect_err("empty name");
        assert!(err.contains("name length"), "{err}");

        // Unknown kind.
        let mut entry = vec![9, 1, b'x'];
        entry.extend_from_slice(&0u64.to_be_bytes());
        let err = decode_metric(&entry).expect_err("kind");
        assert!(err.contains("unknown metric kind"), "{err}");

        // Histogram bucket out of range.
        let mut entry = vec![2, 1, b'x', 1, 65];
        entry.extend_from_slice(&1u64.to_be_bytes());
        let err = decode_metric(&entry).expect_err("bucket range");
        assert!(err.contains("out of range"), "{err}");

        // Buckets not strictly ascending (duplicate could double-add on
        // reassembly).
        let mut entry = vec![2, 1, b'x', 2, 3];
        entry.extend_from_slice(&1u64.to_be_bytes());
        entry.push(3);
        entry.extend_from_slice(&1u64.to_be_bytes());
        let err = decode_metric(&entry).expect_err("ascending");
        assert!(err.contains("strictly ascending"), "{err}");

        // Zero count in the sparse form: not canonical, refuse it.
        let mut entry = vec![2, 1, b'x', 1, 3];
        entry.extend_from_slice(&0u64.to_be_bytes());
        let err = decode_metric(&entry).expect_err("zero count");
        assert!(err.contains("zero count"), "{err}");

        // A hostile count with no bytes behind it dies in the cursor,
        // not in an allocation.
        let err = Response::decode(&[6, 0, 0xff, 0xff]).expect_err("count");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected_with_reasons() {
        let full = Request::Search {
            tenant: 1,
            deadline_ms: 5,
            workload: Workload::Game { branching: 2, depth: 3, seed: 9 },
        }
        .encode();
        for cut in 0..full.len() {
            let err = Request::decode(&full[..cut]).expect_err("truncation must fail");
            assert!(err.contains("missing") || err.contains("opcode"), "cut {cut}: {err}");
        }
        let mut padded = full;
        padded.push(0);
        assert!(Request::decode(&padded).expect_err("trailing").contains("trailing"));
        let ok = Response::Ok { index: 1, loss: 2.0, stats: WireStats::default() };
        for resp in [ok, Response::Malformed("bad".into())] {
            let full = resp.encode();
            for cut in 0..full.len() {
                let err = Response::decode(&full[..cut]).expect_err("truncation must fail");
                assert!(err.contains("missing"), "cut {cut} of {resp:?}: {err}");
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(Request::decode(&[9]).expect_err("opcode").contains("unknown opcode"));
        let mut bad_workload = vec![1];
        bad_workload.extend_from_slice(&1u64.to_be_bytes());
        bad_workload.extend_from_slice(&0u32.to_be_bytes());
        bad_workload.push(7);
        assert!(Request::decode(&bad_workload).expect_err("tag").contains("workload tag"));
        assert!(Response::decode(&[9]).expect_err("status").contains("unknown status"));
        // Status 4 is unassigned.
        let four = Response::decode(&[4, 0, 1, b'x']).expect_err("status 4");
        assert!(four.contains("unknown status 4"), "{four}");
    }

    #[test]
    fn frames_roundtrip_and_oversized_lengths_are_refused_before_allocation() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");

        let huge = u32::MAX.to_be_bytes();
        let err = read_frame(&mut &huge[..]).expect_err("oversized header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut truncated = Vec::new();
        truncated.extend_from_slice(&100u32.to_be_bytes());
        truncated.extend_from_slice(&[0u8; 10]);
        let err = read_frame(&mut &truncated[..]).expect_err("mid-frame EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // A header cut short is mid-frame too, not a clean hang-up.
        for cut in 1..4 {
            let err = read_frame(&mut &[0u8; 4][..cut]).expect_err("truncated header");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{cut}-byte header");
        }
    }

    #[test]
    fn long_malformed_messages_are_clipped_to_fit_the_frame() {
        let msg = "x".repeat(5000);
        let enc = Response::Malformed(msg).encode();
        assert!(enc.len() <= MAX_FRAME);
        match Response::decode(&enc).unwrap() {
            Response::Malformed(m) => assert_eq!(m.len(), 512),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
