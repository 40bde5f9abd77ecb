//! The `serve` workload: a session recorded from paper-scenario simulations,
//! replayed closed-loop by one client against one `serve` process.
//!
//! The session is built from the benchmark's seed the way `tests/service.rs`
//! records views: every heuristic drives a simulation through a recording
//! wrapper, each consulted view becomes a `decide` request line and the
//! decision the simulator took becomes the expected answer. Requests are
//! sent one at a time or grouped into `op:batch` lines, and two
//! `op:session`/`op:event` segments replay the first availability
//! transitions of one trial into an online session, which triggers
//! reschedules. The mix (see the constants below) is the same for every
//! seed.
//!
//! The server is this benchmark's own executable in its `serve` role, which
//! loads the warm core with `ServiceCore::from_options` and answers with
//! `ScheduleService::serve` exactly like the `serve` binary's stdin mode.
//! Its traced variant answers `decide` and `op:batch` lines through
//! `Request::parse`, `ServiceCore::decide` and `DecideReply::render` inside
//! spans, and hands every other line to `ScheduleService::handle_line`.

use crate::trace::Tracer;
use dg_availability::AvailabilityModel;
use dg_experiments::runner::{scheduler_seed, trial_seed};
use dg_experiments::service::{
    CurrentConfig, DecideRequest, Request, ScheduleService, ServeOptions, ServiceCore,
};
use dg_heuristics::HeuristicSpec;
use dg_sim::{Decision, Reevaluation, Scheduler, SimMode, SimView, SimulationLimits, Simulator};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Slot cap of the recording simulations and of the online sessions' trial.
const CAP: u64 = 50_000;
/// Trials recorded per heuristic.
const TRIALS: usize = 2;
/// Decision points kept per (heuristic, trial) of a deterministic heuristic;
/// a run with fewer decisions repeats its views, so every seed records
/// `TRIALS * (16 * PER_RUN + 1)` = 770 decisions (RANDOM keeps one).
const PER_RUN: usize = 24;
/// Requests per `op:batch` line: the batch shape of `BENCH_service.json`.
const BATCH_SIZE: usize = 12;
/// Every `BATCH_EVERY`-th group of `BATCH_SIZE` requests is sent as one
/// batch line, so a quarter of the decisions (192 of 770) travel in 16
/// batch lines and the other 578 are single `decide` lines.
const BATCH_EVERY: usize = 4;
/// `op:event` lines per online session: the first transitions of trial 0 in
/// time order. Two sessions give 64 event lines, a tenth of the session's
/// 660 lines, whatever the seed's transition rate.
const EVENTS_PER_SEGMENT: usize = 32;
/// Heuristics driving the online sessions.
const SESSION_HEURISTICS: [&str; 2] = ["Y-IE", "IE"];
/// The longest the client waits for one reply line.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The flags the `serve` process is started with: the platform of
/// `BENCH_service.json` (paper suite, 20 workers, m = 5, ncom 10, wmin 2).
pub fn core_args(seed: u64) -> Vec<String> {
    ["--suite", "paper", "--ncom", "10", "--wmin", "2", "--decision-threads", "1", "--quiet"]
        .iter()
        .map(|s| s.to_string())
        .chain(["--seed".to_string(), seed.to_string()])
        .collect()
}

/// Build the warm service core exactly like the `serve` binary.
pub fn load_core(seed: u64) -> Result<ServiceCore, String> {
    let opts = ServeOptions::parse(core_args(seed))?;
    ServiceCore::from_options(&opts.base)
}

/// What a session line's replies are checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// One rendered assignment (`null` for "keep") per decision the line asks
    /// for, as the recording simulator decided.
    Decisions(Vec<String>),
    /// An online-session line: its replies must repeat from pass to pass.
    Online,
}

/// One request line of the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The JSON line sent to the server.
    pub text: String,
    /// The expected answer.
    pub expect: Expect,
}

/// Render an assignment's entries the way replies do.
fn render_entries(entries: &[(usize, usize)]) -> String {
    let inner: Vec<String> = entries.iter().map(|&(q, x)| format!("[{q},{x}]")).collect();
    format!("[{}]", inner.join(","))
}

/// Records every consulted view of a simulation as a decide request, plus
/// the decision the wrapped scheduler took.
struct Recorder {
    inner: Box<dyn Scheduler>,
    heuristic: String,
    trial: usize,
    records: Vec<(DecideRequest, String)>,
}

fn request_of(view: &SimView<'_>, heuristic: &str, trial: usize) -> DecideRequest {
    let mut req = DecideRequest::new(
        heuristic,
        &view.workers.iter().map(|w| w.state.code()).collect::<String>(),
    );
    req.time = view.time;
    req.iteration = view.iteration;
    req.completed = view.completed_iterations;
    req.started_at = view.iteration_started_at;
    req.trial = trial;
    req.holdings = Some(
        view.workers
            .iter()
            .map(|w| {
                let d = &w.dynamic;
                (d.has_program, d.data_messages, d.partial_transfer, d.partial_is_program)
            })
            .collect(),
    );
    req.current = view.current.map(|cfg| CurrentConfig {
        entries: cfg.assignment.entries().to_vec(),
        selected_at: cfg.selected_at,
        done: cfg.computation_done,
    });
    req
}

impl Scheduler for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &SimView<'_>) -> Decision {
        let req = request_of(view, &self.heuristic, self.trial);
        let decision = self.inner.decide(view);
        let expected = match &decision {
            Decision::KeepCurrent => "null".to_string(),
            Decision::NewConfiguration(a) => render_entries(a.entries()),
        };
        self.records.push((req, expected));
        decision
    }

    fn on_iteration_complete(&mut self, completed: u64) {
        self.inner.on_iteration_complete(completed);
    }

    fn reevaluation(&self) -> Reevaluation {
        self.inner.reevaluation()
    }
}

/// Record the session of `seed` against the scenario the server loads.
pub fn record_session(core: &ServiceCore) -> Result<Vec<Line>, String> {
    let scenario = &core.scenario;
    let limits = SimulationLimits::with_max_slots(CAP).map_err(|e| format!("{e:?}"))?;
    // One list of (request, expected) per (heuristic, trial) run.
    let mut runs: Vec<Vec<(DecideRequest, String)>> = Vec::new();
    for trial in 0..TRIALS {
        let availability_seed = trial_seed(core.base_seed, scenario.seed, trial);
        let seed = scheduler_seed(core.base_seed, scenario.seed, trial);
        for heuristic in HeuristicSpec::all() {
            let mut recorder = Recorder {
                inner: heuristic.build_with_cache(seed, &core.cache),
                heuristic: heuristic.name(),
                trial,
                records: Vec::new(),
            };
            Simulator::new(scenario, scenario.realize_trial(availability_seed, CAP))
                .with_limits(limits)
                .with_mode(SimMode::EventDriven)
                .run(&mut recorder);
            let records = recorder.records;
            if records.is_empty() {
                return Err(format!("{} made no decision", heuristic.name()));
            }
            // A fresh RANDOM instance reproduces only its first draw.
            let keep = if heuristic == HeuristicSpec::Random { 1 } else { PER_RUN };
            runs.push((0..keep).map(|k| records[k * records.len() / keep].clone()).collect());
        }
    }
    // Interleave the runs so consecutive requests consult different heuristics.
    let mut requests = Vec::new();
    let longest = runs.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        requests.extend(runs.iter().filter_map(|run| run.get(i).cloned()));
    }
    let mut lines = Vec::new();
    for (group, chunk) in requests.chunks(BATCH_SIZE).enumerate() {
        if group % BATCH_EVERY == BATCH_EVERY - 1 && chunk.len() == BATCH_SIZE {
            let items: Vec<String> = chunk.iter().map(|(req, _)| req.render()).collect();
            lines.push(Line {
                text: format!("{{\"batch\":[{}]}}", items.join(",")),
                expect: Expect::Decisions(chunk.iter().map(|(_, e)| e.clone()).collect()),
            });
        } else {
            lines.extend(chunk.iter().map(|(req, expected)| Line {
                text: req.render(),
                expect: Expect::Decisions(vec![expected.clone()]),
            }));
        }
    }
    let middle = lines.len() / 2;
    let mut segments = Vec::new();
    for heuristic in SESSION_HEURISTICS {
        segments.extend(online_segment(core, heuristic)?);
    }
    lines.splice(middle..middle, segments);
    Ok(lines)
}

/// An `op:session` line for `heuristic` followed by one `op:event` line for
/// each of the first [`EVENTS_PER_SEGMENT`] availability transitions of
/// trial 0.
fn online_segment(core: &ServiceCore, heuristic: &str) -> Result<Vec<Line>, String> {
    let scenario = &core.scenario;
    let mut model = scenario.realize_trial(trial_seed(core.base_seed, scenario.seed, 0), CAP);
    let p = model.num_procs();
    let states: String = (0..p).map(|q| model.state(q, 0).code()).collect();
    // The first N transitions overall hold at most N of any one worker.
    let mut events = Vec::new();
    for q in 0..p {
        let mut after = 0;
        for _ in 0..EVENTS_PER_SEGMENT {
            let Some((t, state)) = model.next_transition(q, after) else { break };
            events.push((t, q, state));
            after = t;
        }
    }
    events.sort_by_key(|&(t, q, _)| (t, q));
    if events.len() < EVENTS_PER_SEGMENT {
        return Err(format!("trial 0 has only {} availability transitions", events.len()));
    }
    events.truncate(EVENTS_PER_SEGMENT);
    let session = DecideRequest::new(heuristic, &states).render().replacen(
        "{\"op\":\"decide\"",
        "{\"op\":\"session\"",
        1,
    );
    Ok(std::iter::once(Line { text: session, expect: Expect::Online })
        .chain(events.into_iter().map(|(t, q, state)| Line {
            text: format!(
                "{{\"op\":\"event\",\"worker\":{q},\"state\":\"{}\",\"time\":{t}}}",
                state.code()
            ),
            expect: Expect::Online,
        }))
        .collect())
}

/// The rendered assignments of a decide or batch reply, in order.
pub fn reply_assignments(reply: &str) -> Vec<String> {
    reply
        .split("\"assignment\":")
        .skip(1)
        .map(|rest| rest.split(",\"latency_us\"").next().unwrap_or("").to_string())
        .collect()
}

/// A reply with its timing and cache fields blanked, so replies of a warm
/// pass compare equal to those of a cold one.
pub fn mask(reply: &str) -> String {
    let mut out = reply.to_string();
    for key in ["\"latency_us\":", "\"cache_hits\":", "\"cache_misses\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let end =
                out[start..].find(|c: char| !c.is_ascii_digit()).map_or(out.len(), |e| start + e);
            out.replace_range(start..end, "_");
            from = start;
        }
    }
    out
}

/// A `serve` child process driven over its stdin/stdout.
pub struct Server {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    replies: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Server {
    /// Start `exe` in its `serve` role.
    pub fn spawn(exe: &Path, seed: u64, traced: bool, report: &Path) -> Result<Server, String> {
        let mut child = Command::new(exe)
            .args(["--role", "serve", "--seed", &seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--work")
            .arg(report)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the serve process: {e}"))?;
        let stdin = child.stdin.take().map(BufWriter::new);
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Server { child, stdin, replies, reader: Some(reader) })
    }

    /// Send one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("the server's stdin is closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot write to the serve process: {e}"))
    }

    /// Wait for the next reply line.
    pub fn recv(&mut self) -> Result<String, String> {
        self.replies
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| format!("no reply from the serve process: {e}"))
    }

    /// Close the session and wait for the process to exit.
    pub fn finish(mut self) -> Result<(), String> {
        self.stdin.take();
        let status = self.child.wait().map_err(|e| format!("cannot wait for serve: {e}"))?;
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "the reply reader panicked".to_string())?;
        }
        if !status.success() {
            return Err(format!("the serve process exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.stdin.take();
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// The marker line that closes a pass; the traced server folds its spans
/// into one pass record when it sees it.
pub const PASS_END: &str = "{\"op\":\"stats\"}";

/// One replay of the session.
#[derive(Debug, Default)]
pub struct ServePass {
    /// Wall time of the pass, client side.
    pub wall_s: f64,
    /// Round-trip latency of every `decide` and `op:batch` line,
    /// microseconds. Online-session lines count in the wall time only.
    pub latencies_us: Vec<f64>,
    /// Raw replies, one entry per request line.
    pub replies: Vec<Vec<String>>,
}

/// Replay `lines` closed-loop. `counts` gives the reply lines each request
/// produces; when it is `None` (the first, learning pass) each online
/// segment is sent at once and closed with [`PASS_END`], and the counts are
/// learned from the acknowledgements. Replies are only stored here; see
/// [`check_replies`].
pub fn replay(
    server: &mut Server,
    lines: &[Line],
    counts: Option<&[usize]>,
) -> Result<ServePass, String> {
    let mut pass = ServePass {
        latencies_us: Vec::with_capacity(lines.len()),
        replies: Vec::with_capacity(lines.len()),
        ..ServePass::default()
    };
    let start = Instant::now();
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        if line.expect == Expect::Online && counts.is_none() {
            let end = (i..lines.len())
                .find(|&j| lines[j].expect != Expect::Online)
                .unwrap_or(lines.len());
            for online in &lines[i..end] {
                server.send(&online.text)?;
            }
            server.send(PASS_END)?;
            let mut groups: Vec<Vec<String>> = Vec::new();
            loop {
                let reply = server.recv()?;
                if reply.contains("\"op\":\"stats\"") {
                    break;
                }
                if reply.contains("\"op\":\"reschedule\"") {
                    match groups.last_mut() {
                        Some(group) => group.push(reply),
                        None => return Err(format!("orphan reschedule: {reply}")),
                    }
                } else {
                    groups.push(vec![reply]);
                }
            }
            if groups.len() != end - i {
                return Err(format!(
                    "{} online lines produced {} acknowledgements",
                    end - i,
                    groups.len()
                ));
            }
            pass.replies.extend(groups);
            i = end;
            continue;
        }
        let expected = counts.map_or(1, |c| c[i]);
        let sent = Instant::now();
        server.send(&line.text)?;
        let mut replies = Vec::with_capacity(expected);
        for _ in 0..expected {
            replies.push(server.recv()?);
        }
        if line.expect != Expect::Online {
            pass.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        pass.replies.push(replies);
        i += 1;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    server.send(PASS_END)?;
    server.recv()?;
    Ok(pass)
}

/// Check a pass's replies once its timing is taken: every reply is `ok` and
/// every decision equals the recording's. Returns the masked replies, for
/// comparing passes, and the lines that failed.
pub fn check_replies(lines: &[Line], replies: &[Vec<String>]) -> (Vec<Vec<String>>, Vec<String>) {
    let mut mismatches = Vec::new();
    if replies.len() != lines.len() {
        mismatches.push(format!("{} replies to {} lines", replies.len(), lines.len()));
    }
    for (line, got) in lines.iter().zip(replies) {
        let wrong = match &line.expect {
            Expect::Decisions(decisions) => {
                got.first().map(|r| reply_assignments(r)).as_ref() != Some(decisions)
            }
            Expect::Online => false,
        };
        if wrong || got.iter().any(|r| r.contains("\"ok\":false")) {
            mismatches.push(format!("{} -> {}", line.text, got.join(" | ")));
        }
    }
    let masked = replies.iter().map(|group| group.iter().map(|r| mask(r)).collect()).collect();
    (masked, mismatches)
}

/// Per-pass sums the traced server reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerPass {
    /// Self time of `Request::parse`, seconds.
    pub parse_s: f64,
    /// Self time of `ServiceCore::decide`, seconds.
    pub decide_s: f64,
    /// Self time of `DecideReply::render`, seconds.
    pub render_s: f64,
    /// `ScheduleService::handle_line` time of `op:session`/`op:event`
    /// lines (the online session and its reschedules), seconds.
    pub online_s: f64,
    /// Request time outside the four spans above, seconds.
    pub dispatch_s: f64,
    /// Request lines answered.
    pub requests: u64,
    /// `ServiceCore::decide` calls of `decide` and `op:batch` lines.
    pub decisions: u64,
    /// Decisions installing a configuration different from the request's.
    pub reconfigurations: u64,
    /// Cache lookups of the `decide` and `op:batch` lines.
    pub lookups: u64,
    /// Cache misses of the `decide` and `op:batch` lines.
    pub misses: u64,
    /// Cache lookups of the online-session lines.
    pub online_lookups: u64,
    /// Series terms computed during the pass.
    pub series_terms: u64,
    /// Prefix accumulators built during the pass.
    pub accumulators_built: u64,
    /// Median decision time, microseconds.
    pub decide_us_p50: f64,
    /// 99th-percentile decision time, microseconds.
    pub decide_us_p99: f64,
}

impl ServerPass {
    /// Serialize as one report line.
    pub fn to_line(&self) -> String {
        format!(
            "pass {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.parse_s,
            self.decide_s,
            self.render_s,
            self.online_s,
            self.dispatch_s,
            self.requests,
            self.decisions,
            self.reconfigurations,
            self.lookups,
            self.misses,
            self.online_lookups,
            self.series_terms,
            self.accumulators_built,
            self.decide_us_p50,
            self.decide_us_p99
        )
    }

    /// Parse a line written by [`ServerPass::to_line`].
    pub fn from_line(line: &str) -> Option<ServerPass> {
        let mut fields = line.strip_prefix("pass ")?.split(' ');
        let mut f = || fields.next()?.parse::<f64>().ok();
        Some(ServerPass {
            parse_s: f()?,
            decide_s: f()?,
            render_s: f()?,
            online_s: f()?,
            dispatch_s: f()?,
            requests: f()? as u64,
            decisions: f()? as u64,
            reconfigurations: f()? as u64,
            lookups: f()? as u64,
            misses: f()? as u64,
            online_lookups: f()? as u64,
            series_terms: f()? as u64,
            accumulators_built: f()? as u64,
            decide_us_p50: f()?,
            decide_us_p99: f()?,
        })
    }
}

/// The `serve` role: load the core, answer stdin until EOF, then write the
/// report (`setup_s`, `peak_rss_kb` and, when traced, one `pass` line per
/// [`PASS_END`] marker) and the last traced pass's spans into `work`.
pub fn serve_role(seed: u64, traced: bool, work: &Path) -> Result<(), String> {
    let start = Instant::now();
    let core = Arc::new(load_core(seed)?);
    let setup_s = start.elapsed().as_secs_f64();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut writer = BufWriter::new(stdout.lock());
    let mut report = format!("setup_s {setup_s}\n");
    let mut service = ScheduleService::new(Arc::clone(&core));
    if traced {
        let (passes, spans) = traced_loop(&core, &mut service, stdin.lock(), &mut writer)?;
        for pass in passes {
            report.push_str(&pass.to_line());
            report.push('\n');
        }
        std::fs::write(work.join("serve-spans.jsonl"), spans)
            .map_err(|e| format!("cannot write spans: {e}"))?;
    } else {
        service.serve(stdin.lock(), &mut writer).map_err(|e| format!("serve: {e}"))?;
    }
    writer.flush().map_err(|e| format!("serve: {e}"))?;
    let _ = writeln!(report, "peak_rss_kb {}", crate::sys::peak_rss_kb());
    std::fs::write(work.join(if traced { "serve-traced.txt" } else { "serve.txt" }), report)
        .map_err(|e| format!("cannot write the serve report: {e}"))
}

/// Answer `reader` line by line with spans around the service's layers.
fn traced_loop<R: BufRead, W: Write>(
    core: &ServiceCore,
    service: &mut ScheduleService,
    reader: R,
    writer: &mut W,
) -> Result<(Vec<ServerPass>, String), String> {
    let mut passes = Vec::new();
    let mut tracer = Tracer::new();
    let mut last_spans = String::new();
    let mut sums = ServerPass::default();
    let mut decide_ns: Vec<u64> = Vec::new();
    let mut online_misses = 0;
    let mut before =
        (core.cache.stats(), core.cache.series_terms(), core.cache.accumulators_built());
    for (n, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("serve: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        if line == PASS_END {
            let self_ns = tracer.self_ns();
            let s = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
            let stats = core.cache.stats().since(&before.0);
            sums.parse_s = s("service.parse");
            sums.decide_s = s("service.decide");
            sums.render_s = s("service.render");
            sums.online_s = s("service.online");
            sums.dispatch_s = s("service.request");
            sums.lookups = stats.lookups() - sums.online_lookups;
            sums.misses = stats.group_misses - online_misses;
            sums.series_terms = core.cache.series_terms() - before.1;
            sums.accumulators_built = core.cache.accumulators_built() - before.2;
            sums.decide_us_p50 = crate::stats::quantile_u64(&decide_ns, 0.5) / 1e3;
            sums.decide_us_p99 = crate::stats::quantile_u64(&decide_ns, 0.99) / 1e3;
            crate::trace::check_well_formed(tracer.spans())?;
            passes.push(std::mem::take(&mut sums));
            last_spans = tracer.to_jsonl();
            tracer = Tracer::new();
            decide_ns.clear();
            online_misses = 0;
            before =
                (core.cache.stats(), core.cache.series_terms(), core.cache.accumulators_built());
            for reply in service.handle_line(&line) {
                writeln!(writer, "{reply}").map_err(|e| format!("serve: {e}"))?;
            }
            writer.flush().map_err(|e| format!("serve: {e}"))?;
            continue;
        }
        tracer.set_id(n as u64);
        tracer.enter("service.request");
        sums.requests += 1;
        let parsed = tracer.span("service.parse", |_| Request::parse(&line));
        let replies = match parsed {
            Ok(Request::Decide(req)) => {
                match traced_decide(&mut tracer, core, &req, &mut sums, &mut decide_ns) {
                    Some(reply) => vec![reply],
                    None => service.handle_line(&line),
                }
            }
            Ok(Request::Batch(reqs)) => {
                let start = Instant::now();
                let batch_before = core.cache.stats();
                let mut parts = Vec::with_capacity(reqs.len());
                for req in &reqs {
                    match traced_decide(&mut tracer, core, req, &mut sums, &mut decide_ns) {
                        Some(reply) => parts.push(reply),
                        None => break,
                    }
                }
                if parts.len() == reqs.len() {
                    let delta = core.cache.stats().since(&batch_before);
                    vec![format!(
                        "{{\"ok\":true,\"op\":\"batch\",\"replies\":[{}],\"latency_us\":{},\
                         \"cache_hits\":{},\"cache_misses\":{},\"decision_threads\":{}}}",
                        parts.join(","),
                        start.elapsed().as_micros(),
                        delta.group_hits,
                        delta.group_misses,
                        core.cache.decision_threads()
                    )]
                } else {
                    service.handle_line(&line)
                }
            }
            Ok(Request::Session(_) | Request::Event { .. }) => {
                let online_before = core.cache.stats();
                let replies = tracer.span("service.online", |_| service.handle_line(&line));
                let delta = core.cache.stats().since(&online_before);
                sums.online_lookups += delta.lookups();
                online_misses += delta.group_misses;
                replies
            }
            _ => service.handle_line(&line),
        };
        for reply in &replies {
            writeln!(writer, "{reply}").map_err(|e| format!("serve: {e}"))?;
        }
        writer.flush().map_err(|e| format!("serve: {e}"))?;
        tracer.exit();
    }
    Ok((passes, last_spans))
}

/// Answer one decision inside `service.decide` and `service.render` spans;
/// `None` when the service rejects the request (the caller then lets
/// `handle_line` produce the error reply).
fn traced_decide(
    tracer: &mut Tracer,
    core: &ServiceCore,
    req: &DecideRequest,
    sums: &mut ServerPass,
    decide_ns: &mut Vec<u64>,
) -> Option<String> {
    let start = Instant::now();
    let reply = tracer.span("service.decide", |_| core.decide(req)).ok()?;
    decide_ns.push(start.elapsed().as_nanos() as u64);
    sums.decisions += 1;
    if let Some(a) = &reply.assignment {
        if req.current.as_ref().is_none_or(|c| c.entries.as_slice() != a.entries()) {
            sums.reconfigurations += 1;
        }
    }
    Some(tracer.span("service.render", |_| reply.render()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_is_deterministic_per_seed_and_every_line_parses() {
        let core = load_core(3).unwrap();
        let a = record_session(&core).unwrap();
        let b = record_session(&load_core(3).unwrap()).unwrap();
        assert_eq!(a, b, "the same seed must give the same session");
        let other = record_session(&load_core(4).unwrap()).unwrap();
        assert_ne!(a, other, "another seed must give another session");
        let (mut decides, mut batches, mut sessions, mut events) = (0, 0, 0, 0);
        for line in &a {
            match Request::parse(&line.text).unwrap_or_else(|e| panic!("{e}: {}", line.text)) {
                Request::Decide(_) => decides += 1,
                Request::Batch(reqs) => {
                    batches += 1;
                    assert_eq!(reqs.len(), BATCH_SIZE);
                }
                Request::Session(_) => sessions += 1,
                Request::Event { .. } => events += 1,
                Request::Stats => panic!("sessions carry no stats lines"),
            }
        }
        // The mix is fixed whatever the seed: 770 decisions, a quarter batched.
        assert_eq!((decides, batches), (578, 16));
        assert_eq!(decides + batches * BATCH_SIZE, TRIALS * (16 * PER_RUN + 1));
        assert_eq!(sessions, SESSION_HEURISTICS.len());
        assert_eq!(events, SESSION_HEURISTICS.len() * EVENTS_PER_SEGMENT);
        assert_eq!(other.len(), a.len());
    }

    #[test]
    fn served_decisions_equal_the_recording() {
        let core = Arc::new(load_core(5).unwrap());
        let lines = record_session(&core).unwrap();
        let mut service = ScheduleService::new(Arc::clone(&core));
        let mut replies: Vec<Vec<String>> =
            lines.iter().map(|line| service.handle_line(&line.text)).collect();
        let (_, mismatches) = check_replies(&lines, &replies);
        assert!(mismatches.is_empty(), "{mismatches:?}");
        let first = lines.iter().position(|l| matches!(l.expect, Expect::Decisions(_))).unwrap();
        replies[first][0] =
            replies[first][0].replacen("\"assignment\":", "\"assignment\":[[0,1]],\"was\":", 1);
        assert_eq!(check_replies(&lines, &replies).1.len(), 1, "a changed decision is caught");
    }

    #[test]
    fn masking_blanks_only_volatile_fields() {
        let reply = "{\"id\":3,\"assignment\":[[1,2]],\"latency_us\":41,\"cache_hits\":7,\
                     \"cache_misses\":0,\"decision_threads\":1}";
        assert_eq!(
            mask(reply),
            "{\"id\":3,\"assignment\":[[1,2]],\"latency_us\":_,\"cache_hits\":_,\
             \"cache_misses\":_,\"decision_threads\":1}"
        );
        assert_eq!(reply_assignments(reply), vec!["[[1,2]]".to_string()]);
    }

    #[test]
    fn server_pass_lines_round_trip() {
        let pass = ServerPass {
            parse_s: 0.25,
            online_s: 0.5,
            requests: 9,
            online_lookups: 7,
            decide_us_p99: 12.5,
            ..Default::default()
        };
        assert_eq!(ServerPass::from_line(&pass.to_line()), Some(pass));
    }
}
