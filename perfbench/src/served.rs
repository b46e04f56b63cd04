//! The served workloads: an in-process `selc-serve` on loopback, driven
//! by closed-loop clients that replay the seeded plan and check every
//! answer against a reference computed by an independent path.

use crate::load::{Kind, Op, ServedPlan};
use crate::measure::micros;
use crate::phase::{Clock, Failures, Phase, Tally};
use crate::trace::Recorder;
use lambda_rt::{search_compiled_flat, LcCandidates};
use selc_engine::{CancelToken, SequentialEngine};
use selc_games::alternating::GameTree;
use selc_obs::MetricsSnapshot;
use selc_serve::workload::{self, check_decision_shape, validate, Ran};
use selc_serve::{Client, Request, Response, ServeConfig, Server, Tenant, Tenants, Workload};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Expected `(index, loss bits)` per search workload.
pub struct References(HashMap<(u8, u8, u64), (u64, u64)>);

/// `Workload` is not `Hash`; chains key as depth 0, which no game has.
fn key(w: &Workload) -> (u8, u8, u64) {
    match *w {
        Workload::Chain { choices } => (choices, 0, 0),
        Workload::Game { branching, depth, seed } => (branching, depth, seed),
    }
}

impl References {
    /// Chains: the flat exhaustive scan on `SequentialEngine`; games:
    /// backward induction. Neither shares code with the served path.
    pub fn compute(plan: &ServedPlan) -> References {
        References(plan.workloads().iter().map(|w| (key(w), reference(w))).collect())
    }

    fn matches(&self, w: &Workload, index: u64, loss: f64) -> bool {
        self.0.get(&key(w)) == Some(&(index, loss.to_bits()))
    }

    /// Files `resp` (the answer to `op`) as a success or a failure.
    fn check(&self, op: &Op, resp: &Response, fails: &mut Failures) -> bool {
        match (op, resp) {
            (Op::Bump { .. }, Response::EpochBumped { .. }) => true,
            (Op::Search { workload, .. }, Response::Ok { index, loss, .. }) => {
                let ok = self.matches(workload, *index, *loss);
                if !ok {
                    fails.wrong_winner += 1;
                }
                ok
            }
            (_, other) => {
                fails.unexpected(other);
                false
            }
        }
    }
}

fn reference(w: &Workload) -> (u64, u64) {
    match *w {
        Workload::Chain { choices } => {
            let program = lambda_c::testgen::deep_decide_chain(u32::from(choices));
            let compiled = lambda_c::compile(&program.expr).expect("generated chains compile");
            let cands = LcCandidates::new(compiled, ["decide".to_owned()], u32::from(choices));
            let (out, _) = search_compiled_flat(&SequentialEngine::exhaustive(), &cands)
                .expect("chains have non-empty spaces");
            (out.index as u64, out.loss.0.as_scalar().to_bits())
        }
        Workload::Game { branching, depth, seed } => {
            let tree = GameTree::random(usize::from(branching), usize::from(depth), seed);
            let (play, value) = tree.solve_backward();
            let index = play.iter().fold(0u64, |acc, &m| acc * u64::from(branching) + m as u64);
            (index, value.to_bits())
        }
    }
}

fn request_of(op: &Op) -> Request {
    match *op {
        Op::Search { tenant, workload } => Request::Search { tenant, deadline_ms: 0, workload },
        Op::Bump { tenant } => Request::BumpEpoch { tenant },
    }
}

/// A running server with one open connection per client.
pub struct Served {
    pub conns: Vec<Client>,
    pub server: Server,
    pub workers: usize,
}

/// Spawns the server, connects the clients and sends the plan's
/// warm-up: the set-up that `setup_s` times.
pub fn set_up(plan: &ServedPlan) -> io::Result<Served> {
    let clients = plan.clients.len();
    let env = ServeConfig::from_env();
    // Each session holds a worker until it hangs up, so every client
    // needs its own.
    let workers = env.workers.max(clients);
    let config = ServeConfig { port: 0, workers, max_sessions: env.max_sessions.max(clients + 1) };
    let server = Server::spawn(config)?;
    let mut conns =
        (0..clients).map(|_| Client::connect(server.addr())).collect::<io::Result<Vec<_>>>()?;
    for op in &plan.prewarm {
        let resp = conns[0].request(&request_of(op))?;
        if !matches!(resp, Response::Ok { .. } | Response::EpochBumped { .. }) {
            return Err(io::Error::other(format!("warm-up {op:?} got {resp:?}")));
        }
    }
    Ok(Served { conns, server, workers })
}

struct ClientRun {
    done: Vec<(Duration, f64)>,
    attempted: u64,
    fails: Failures,
    tally: Tally,
    rec: Option<Recorder>,
}

/// One closed-loop client: sends the next op only after the previous
/// reply, until the clock runs out.
fn drive(
    conn: &mut Client,
    addr: SocketAddr,
    ops: &[Op],
    refs: &References,
    clock: Clock,
    mut rec: Option<Recorder>,
    id_base: u64,
) -> ClientRun {
    let mut run = ClientRun {
        done: Vec::new(),
        attempted: 0,
        fails: Failures::default(),
        tally: Tally::default(),
        rec: None,
    };
    for (i, op) in ops.iter().cycle().enumerate() {
        if Instant::now() >= clock.until {
            break;
        }
        run.attempted += 1;
        let request = id_base + i as u64;
        let root = rec.as_mut().map(|r| r.open("client.request", None, request));
        let t0 = Instant::now();
        let resp = conn.request(&request_of(op));
        let lat = match (rec.as_mut(), root) {
            (Some(r), Some(id)) => r.close(id),
            _ => micros(t0.elapsed()),
        };
        let resp = match resp {
            Ok(resp) => resp,
            Err(_) => {
                run.fails.transport += 1;
                match Client::connect(addr) {
                    Ok(fresh) => *conn = fresh,
                    Err(_) => break,
                }
                continue;
            }
        };
        if refs.check(op, &resp, &mut run.fails) {
            if let Response::Ok { stats, .. } = resp {
                run.done.push((clock.start.elapsed(), lat));
                run.tally.add(&stats);
            }
        }
    }
    run.rec = rec;
    run
}

/// Reads the server's registry over the protocol. Should the frame
/// budget drop entries, the registry is read in-process instead: the
/// server runs in this process, so it is the same registry.
fn scrape(conn: &mut Client) -> MetricsSnapshot {
    match conn.request(&Request::Metrics) {
        Ok(Response::Metrics(wire)) if !wire.truncated => wire.to_snapshot(),
        _ => selc_obs::metrics::snapshot(),
    }
}

/// Runs every client of `plan` for `seconds`; spans are recorded when
/// `origin` is given.
pub fn phase(
    served: &mut Served,
    plan: &ServedPlan,
    refs: &References,
    seconds: f64,
    origin: Option<Instant>,
) -> Phase {
    let addr = served.server.addr();
    let before = scrape(&mut served.conns[0]);
    let clock = Clock::start(seconds);
    let (runs, marks) = std::thread::scope(|s| {
        let sampler = s.spawn(|| clock.sample());
        let handles: Vec<_> = served
            .conns
            .iter_mut()
            .zip(&plan.clients)
            .enumerate()
            .map(|(c, (conn, ops))| {
                let rec = origin.map(Recorder::new);
                s.spawn(move || drive(conn, addr, ops, refs, clock, rec, (c as u64) << 32))
            })
            .collect();
        let runs: Vec<ClientRun> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (runs, sampler.join().expect("CPU sampler panicked"))
    });
    let scrape = scrape(&mut served.conns[0]).since(&before);
    let mut phase = Phase {
        window: clock.window,
        marks,
        done: Vec::new(),
        attempted: 0,
        fails: Failures::default(),
        tally: Tally::default(),
        scrape,
        rec: origin.map(Recorder::new),
    };
    for run in runs {
        phase.done.extend(run.done);
        phase.attempted += run.attempted;
        phase.fails.merge(&run.fails);
        phase.tally.merge(&run.tally);
        if let (Some(all), Some(rec)) = (phase.rec.as_mut(), run.rec) {
            all.absorb(rec);
        }
    }
    phase
}

/// Checks the client's own counts against the scraped `serve.*`
/// deltas. The closing scrape is itself one more request.
pub fn check_accounting(phase: &Phase) -> Result<(), String> {
    if !selc_obs::metrics_enabled() {
        return Ok(()); // `SELC_METRICS=0`: nothing was recorded to compare
    }
    let f = &phase.fails;
    let mut want =
        vec![("serve.admission_rejects", f.busy), ("serve.deadline_timeouts", f.timeout)];
    if f.transport == 0 {
        want.push(("serve.requests", phase.attempted + 1));
        want.push(("serve.disconnect_cancels", 0));
    }
    for (name, expected) in want {
        let got = phase.scrape.counter(name);
        if got != expected {
            return Err(format!("{name}: scraped {got}, client counted {expected}"));
        }
    }
    Ok(())
}

/// Ops of client 0's plan replayed in-process by the traced run: a
/// seeded sample, sized so each workload replays in well under a second.
fn replay_sample(kind: Kind) -> usize {
    match kind {
        Kind::WarmRepeat => 512,
        Kind::ColdRefill => 64,
        // Eight whole rounds: a bump and 16 solves each.
        _ => 8 * 17,
    }
}

fn lookup(tenants: &Tenants, id: u64, w: &Workload) -> (Arc<Tenant>, Option<LcCandidates>) {
    let tenant = tenants.get_or_create(id);
    let cands = match *w {
        Workload::Chain { choices } => Some(tenant.chain(choices)),
        Workload::Game { branching, depth, seed } => {
            tenant.game(branching, depth, seed);
            None
        }
    };
    (tenant, cands)
}

fn response_of(ran: Ran) -> Response {
    match ran {
        Ran::Done { index, loss, stats } => Response::Ok { index, loss, stats },
        Ran::TimedOut { partial } => Response::Timeout { partial },
        Ran::Rejected(msg) => Response::Malformed(msg),
    }
}

/// Replays a sample of the workload's own requests in the server's
/// order, in-process against a `Tenants` warmed like the server's, with
/// a span around each call into the serve layer.
pub fn replay(plan: &ServedPlan, kind: Kind, refs: &References, rec: &mut Recorder) -> Failures {
    let tenants = Tenants::default();
    let never = CancelToken::never();
    for op in &plan.prewarm {
        match *op {
            Op::Search { tenant, workload } => {
                workload::run(&tenants.get_or_create(tenant), &workload, &never, false);
            }
            Op::Bump { tenant } => {
                tenants.bump(tenant);
            }
        }
    }
    let mut fails = Failures::default();
    for (i, op) in plan.clients[0].iter().take(replay_sample(kind)).enumerate() {
        let request = (1 << 48) + i as u64;
        let id = rec.open("serve.request", None, request);
        let root = Some(id);
        let payload = rec.time("client.encode", root, request, || request_of(op).encode());
        let response = match rec.time("serve.decode", root, request, || Request::decode(&payload)) {
            Ok(Request::BumpEpoch { tenant }) => Response::EpochBumped {
                epoch: rec.time("serve.epoch_bump", root, request, || tenants.bump(tenant)),
            },
            Ok(Request::Search { tenant, deadline_ms, workload }) => {
                match rec.time("serve.validate", root, request, || validate(&workload)) {
                    Err(msg) => Response::Malformed(msg),
                    Ok(()) => {
                        let (t, cands) = rec.time("serve.tenant_lookup", root, request, || {
                            lookup(&tenants, tenant, &workload)
                        });
                        let guard = cands.map(|c| {
                            rec.time("serve.flow_guard", root, request, || check_decision_shape(&c))
                        });
                        match guard {
                            Some(Err(msg)) => Response::Malformed(msg),
                            _ => response_of(rec.time("serve.run", root, request, || {
                                workload::run(&t, &workload, &never, deadline_ms > 0)
                            })),
                        }
                    }
                }
            }
            Ok(other) => Response::Malformed(format!("replay built {other:?}")),
            Err(msg) => Response::Malformed(msg),
        };
        std::hint::black_box(rec.time("serve.encode", root, request, || response.encode()));
        rec.close(id);
        refs.check(op, &response, &mut fails);
    }
    fails
}
