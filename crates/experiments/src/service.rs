//! The long-running scheduler service behind the `serve` binary.
//!
//! Every experiment binary so far pays full platform/table construction per
//! process and exits; the service turns the library inside-out into a
//! **warm-cache daemon**: one [`ServiceCore`] loads a platform/suite once,
//! keeps one shared [`EvalCache`] warm, and answers scheduling-decision
//! requests over a hand-rolled JSONL line protocol — on stdin/stdout or a TCP
//! listener, one [`ScheduleService`] session per connection.
//!
//! ## Protocol
//!
//! One JSON object per line, one or more JSON objects per line in reply. A
//! request's `op` selects the operation (`decide` when omitted):
//!
//! ```text
//! {"heuristic":"IE","workers":"UURDU"}
//!     -> {"id":null,"ok":true,"op":"decide","heuristic":"IE","decision":"new",
//!         "assignment":[[0,2],[1,2],[4,1]],"latency_us":412,"cache_hits":0,"cache_misses":9}
//! {"batch":[{...},{...}]}            one warm cache amortized across the group
//! {"op":"session","heuristic":"Y-IE","workers":"UUUUU"}   start online mode
//! {"op":"event","worker":2,"state":"D","time":17}         live transition
//! {"op":"stats"}                                          daemon counters
//! ```
//!
//! A decide request carries a [`SimView`](dg_sim::view::SimView)-shaped
//! world state: per-worker
//! availability codes (`workers`), optional holdings (`holdings`, one
//! `[has_program, data_messages, partial_transfer, partial_is_program]`
//! quadruple per worker), the current assignment (`current` entries plus
//! `selected_at`/`done`), and the clock (`time`/`iteration`/`completed`/
//! `started_at`). The scheduler seed is derived from the request's `trial`
//! index exactly as [`crate::runner::run_instance_on`] derives it (or forced
//! with `seed`), and the view is normalized exactly like the engine's
//! pre-decision step ([`DecisionContext::normalize`]) — so the answered
//! decision is **byte-identical** to the one `run_instance_on`'s scheduler
//! would make at the same view.
//!
//! ## Online mode
//!
//! `{"op":"session",...}` instantiates one registry-built scheduler for the
//! connection and seeds a live [`StateTrace`] per worker. Subsequent
//! `{"op":"event",...}` lines append availability transitions to the traces
//! ([`StateTrace::append_transition`]; reporting the tail state again is not
//! a transition) and re-evaluate the scheduler per its [`Reevaluation`]
//! contract — the first consumer of that contract outside the simulator: the
//! engine's always-wake rules (configuration-member transitions, a crash
//! while holding program or data, entering `UP` while idle) plus the
//! scheduler's `on_outside_transitions` flag. A changed decision installs
//! the new configuration and emits an unsolicited `{"op":"reschedule",...}`
//! record after the event's acknowledgement.
//!
//! Malformed input is answered with `{"ok":false,"error":...}` on the same
//! stream — the daemon never exits on bad input; it shuts down cleanly on
//! EOF (or a closed peer: broken-pipe writes end the session instead of
//! killing the process).

use crate::cli::CliOptions;
use crate::executor::scenario_seed;
use crate::runner::scheduler_seed;
use dg_analysis::{EvalCache, EvalCacheStats};
use dg_availability::{ProcState, StateTrace};
use dg_heuristics::parse_heuristic_named;
use dg_platform::Scenario;
use dg_sim::view::{Decision, Reevaluation, Scheduler};
use dg_sim::{Assignment, DecisionContext};
use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Minimal JSON: the vendored serde is a no-op shim, so the protocol codec is
// hand-rolled like the store's, but key-order-tolerant (requests are typed by
// humans and clients, not round-tripped from our own encoder).
// ---------------------------------------------------------------------------

/// A parsed JSON value of the protocol's subset: null, unsigned integers,
/// strings, arrays and objects.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Num(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Deepest array/object nesting a request may use. The protocol itself
/// nests five levels (a batch entry's `current` pairs); the limit keeps the
/// recursive parser from overflowing its stack on hostile input.
const MAX_NESTING: usize = 32;

/// Longest request line `serve` buffers on platforms of up to 16,384
/// workers, its newline not counted. A paper-suite batch request is a few
/// kilobytes; longer lines get an error reply and are skipped without being
/// held in memory.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Request-line bytes allowed per platform worker, so that larger platforms
/// (`massive`, `colossal`) can still send a full request: one state code
/// plus the longest holdings quad
/// (`[false,18446744073709551615,18446744073709551615,false],`) fit in it.
const LINE_BYTES_PER_WORKER: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    return Err(format!(
                        "nesting deeper than {MAX_NESTING} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Value::Null)
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match escaped {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => {
                            return Err(format!("unsupported string escape {other:?}"));
                        }
                    }
                }
                Some(&b) => {
                    // The protocol's strings are ASCII (codes, names); pass
                    // other UTF-8 bytes through untouched.
                    out.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

/// Parse one request line into its top-level object fields.
fn parse_line(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut parser = Parser::new(line);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes after the request at byte {}", parser.pos));
    }
    match value {
        Value::Obj(fields) => Ok(fields),
        _ => Err("a request must be a JSON object".to_string()),
    }
}

/// Escape a string for embedding in a JSON reply.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n").replace('\t', "\\t")
}

fn render_entries(entries: &[(usize, usize)]) -> String {
    let inner: Vec<String> = entries.iter().map(|&(q, x)| format!("[{q},{x}]")).collect();
    format!("[{}]", inner.join(","))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The installed configuration described by a decide request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CurrentConfig {
    /// `(worker, tasks)` assignment entries.
    pub entries: Vec<(usize, usize)>,
    /// Time-slot at which the configuration was selected.
    pub selected_at: u64,
    /// Slots of simultaneous computation already accumulated.
    pub done: u64,
}

/// One scheduling-decision request: a [`SimView`]-shaped world state plus the
/// heuristic to consult.
///
/// [`SimView`]: dg_sim::SimView
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecideRequest {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: Option<u64>,
    /// Paper name of the heuristic to consult (registry-validated).
    pub heuristic: String,
    /// Per-worker availability codes (`U`/`R`/`D`), one per platform worker.
    pub workers: String,
    /// Current time-slot.
    pub time: u64,
    /// Iteration being executed.
    pub iteration: u64,
    /// Iterations already completed.
    pub completed: u64,
    /// Slot at which the current iteration began.
    pub started_at: u64,
    /// Trial index the scheduler seed is derived from (ignored when `seed`
    /// is given).
    pub trial: usize,
    /// Explicit raw scheduler seed, overriding the `trial` derivation.
    pub seed: Option<u64>,
    /// The installed configuration, if any.
    pub current: Option<CurrentConfig>,
    /// Per-worker holdings `[has_program, data_messages, partial_transfer,
    /// partial_is_program]`; all-fresh when omitted.
    pub holdings: Option<Vec<(bool, usize, u64, bool)>>,
}

impl DecideRequest {
    /// A minimal request: `heuristic` consulted at time 0 on `workers`, no
    /// holdings, no installed configuration, trial 0.
    pub fn new(heuristic: &str, workers: &str) -> Self {
        DecideRequest {
            id: None,
            heuristic: heuristic.to_string(),
            workers: workers.to_string(),
            time: 0,
            iteration: 0,
            completed: 0,
            started_at: 0,
            trial: 0,
            seed: None,
            current: None,
            holdings: None,
        }
    }

    fn from_fields(fields: &[(String, Value)]) -> Result<Self, String> {
        let mut req: Option<DecideRequest> = None;
        let mut selected_at: Option<u64> = None;
        let mut done: Option<u64> = None;
        let mut entries: Option<Vec<(usize, usize)>> = None;
        // Two-pass: heuristic/workers are required, everything else overlays.
        let heuristic = get_str(fields, "heuristic")?.ok_or("missing field 'heuristic'")?;
        let workers = get_str(fields, "workers")?.ok_or("missing field 'workers'")?;
        let base = req.get_or_insert(DecideRequest::new(&heuristic, &workers));
        for (key, value) in fields {
            match key.as_str() {
                "op" | "heuristic" | "workers" => {}
                "id" => base.id = num_or_null(value, key)?,
                "time" => base.time = num(value, key)?,
                "iteration" => base.iteration = num(value, key)?,
                "completed" => base.completed = num(value, key)?,
                "started_at" => base.started_at = num(value, key)?,
                "trial" => base.trial = num(value, key)? as usize,
                "seed" => base.seed = num_or_null(value, key)?,
                "selected_at" => selected_at = Some(num(value, key)?),
                "done" => done = Some(num(value, key)?),
                "current" => entries = pairs_or_null(value, key)?,
                "holdings" => base.holdings = holdings(value)?,
                other => return Err(format!("unknown field '{other}'")),
            }
        }
        let mut req = req.expect("base request initialized");
        if let Some(entries) = entries {
            req.current = Some(CurrentConfig {
                entries,
                selected_at: selected_at.unwrap_or(req.time),
                done: done.unwrap_or(0),
            });
        }
        Ok(req)
    }

    /// Parse a request from one JSONL line (any field order).
    pub fn parse(line: &str) -> Result<Self, String> {
        DecideRequest::from_fields(&parse_line(line)?)
    }

    /// Render the request in the canonical field order. `parse` of the result
    /// reproduces the request exactly — the protocol round-trip the property
    /// test pins.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"op\":\"decide\"");
        match self.id {
            Some(id) => write!(out, ",\"id\":{id}").unwrap(),
            None => out.push_str(",\"id\":null"),
        }
        write!(
            out,
            ",\"heuristic\":\"{}\",\"workers\":\"{}\",\"time\":{},\"iteration\":{},\
             \"completed\":{},\"started_at\":{},\"trial\":{}",
            escape(&self.heuristic),
            escape(&self.workers),
            self.time,
            self.iteration,
            self.completed,
            self.started_at,
            self.trial
        )
        .unwrap();
        match self.seed {
            Some(seed) => write!(out, ",\"seed\":{seed}").unwrap(),
            None => out.push_str(",\"seed\":null"),
        }
        if let Some(current) = &self.current {
            write!(
                out,
                ",\"current\":{},\"selected_at\":{},\"done\":{}",
                render_entries(&current.entries),
                current.selected_at,
                current.done
            )
            .unwrap();
        }
        if let Some(holdings) = &self.holdings {
            let quads: Vec<String> = holdings
                .iter()
                .map(|&(hp, dm, pt, pp)| format!("[{},{dm},{pt},{}]", hp as u8, pp as u8))
                .collect();
            write!(out, ",\"holdings\":[{}]", quads.join(",")).unwrap();
        }
        out.push('}');
        out
    }
}

fn get_str(fields: &[(String, Value)], name: &str) -> Result<Option<String>, String> {
    match fields.iter().find(|(k, _)| k == name) {
        None => Ok(None),
        Some((_, Value::Str(s))) => Ok(Some(s.clone())),
        Some(_) => Err(format!("field '{name}' must be a string")),
    }
}

fn num(value: &Value, key: &str) -> Result<u64, String> {
    match value {
        Value::Num(n) => Ok(*n),
        _ => Err(format!("field '{key}' must be an unsigned integer")),
    }
}

fn num_or_null(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value {
        Value::Null => Ok(None),
        Value::Num(n) => Ok(Some(*n)),
        _ => Err(format!("field '{key}' must be an unsigned integer or null")),
    }
}

fn pairs_or_null(value: &Value, key: &str) -> Result<Option<Vec<(usize, usize)>>, String> {
    let items = match value {
        Value::Null => return Ok(None),
        Value::Arr(items) => items,
        _ => return Err(format!("field '{key}' must be an array of [worker,tasks] pairs")),
    };
    let mut pairs = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Arr(pair) if pair.len() == 2 => {
                pairs.push((num(&pair[0], key)? as usize, num(&pair[1], key)? as usize));
            }
            _ => return Err(format!("field '{key}' must contain [worker,tasks] pairs")),
        }
    }
    Ok(Some(pairs))
}

#[allow(clippy::type_complexity)]
fn holdings(value: &Value) -> Result<Option<Vec<(bool, usize, u64, bool)>>, String> {
    let items = match value {
        Value::Null => return Ok(None),
        Value::Arr(items) => items,
        _ => return Err("field 'holdings' must be an array of quadruples".to_string()),
    };
    let mut quads = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Arr(quad) if quad.len() == 4 => {
                let flag = |v: &Value| -> Result<bool, String> {
                    match num(v, "holdings")? {
                        0 => Ok(false),
                        1 => Ok(true),
                        n => Err(format!("holdings flags must be 0 or 1, got {n}")),
                    }
                };
                quads.push((
                    flag(&quad[0])?,
                    num(&quad[1], "holdings")? as usize,
                    num(&quad[2], "holdings")?,
                    flag(&quad[3])?,
                ));
            }
            _ => {
                return Err("field 'holdings' must contain \
                            [has_program,data_messages,partial_transfer,partial_is_program] \
                            quadruples"
                    .to_string())
            }
        }
    }
    Ok(Some(quads))
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A single decision request.
    Decide(DecideRequest),
    /// A group of decision requests amortizing one warm cache.
    Batch(Vec<DecideRequest>),
    /// Start an online session for this connection.
    Session(DecideRequest),
    /// A live availability transition for the online session.
    Event {
        /// Worker index the transition concerns.
        worker: usize,
        /// The worker's new availability state.
        state: ProcState,
        /// Time-slot of the transition.
        time: u64,
    },
    /// Daemon counters.
    Stats,
}

impl Request {
    /// Parse one JSONL request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let fields = parse_line(line)?;
        if let Some((_, value)) = fields.iter().find(|(k, _)| k == "batch") {
            let items = match value {
                Value::Arr(items) => items,
                _ => return Err("field 'batch' must be an array of requests".to_string()),
            };
            let mut requests = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Value::Obj(fields) => requests.push(DecideRequest::from_fields(fields)?),
                    _ => return Err("field 'batch' must contain request objects".to_string()),
                }
            }
            if requests.is_empty() {
                return Err("a batch needs at least one request".to_string());
            }
            return Ok(Request::Batch(requests));
        }
        match get_str(&fields, "op")?.as_deref().unwrap_or("decide") {
            "decide" => Ok(Request::Decide(DecideRequest::from_fields(&fields)?)),
            "session" => Ok(Request::Session(DecideRequest::from_fields(&fields)?)),
            "event" => {
                let find = |name: &str| -> Result<u64, String> {
                    fields
                        .iter()
                        .find(|(k, _)| k == name)
                        .ok_or(format!("missing field '{name}'"))
                        .and_then(|(k, v)| num(v, k))
                };
                let state = get_str(&fields, "state")?.ok_or("missing field 'state'")?;
                let state = state
                    .chars()
                    .next()
                    .filter(|_| state.len() == 1)
                    .and_then(ProcState::from_code)
                    .ok_or(format!("invalid state '{state}' (expected U, R or D)"))?;
                Ok(Request::Event { worker: find("worker")? as usize, state, time: find("time")? })
            }
            "stats" => Ok(Request::Stats),
            other => Err(format!("unknown op '{other}' (expected decide, session, event, stats)")),
        }
    }
}

// ---------------------------------------------------------------------------
// The warm core and per-connection sessions
// ---------------------------------------------------------------------------

/// The warm, shareable half of the service: one scenario's platform tables
/// and one [`EvalCache`], built once at startup and shared (via
/// [`EvalCache`]'s state-sharing clone) by every connection and request.
#[derive(Debug)]
pub struct ServiceCore {
    /// The scenario whose platform/application/master every request is
    /// answered against.
    pub scenario: Scenario,
    /// The shared evaluation cache (the Section V group tables).
    pub cache: EvalCache,
    /// Master seed the per-trial scheduler seeds are derived from.
    pub base_seed: u64,
}

impl ServiceCore {
    /// Wrap a scenario into a service core with a fresh evaluation cache of
    /// precision `epsilon`.
    pub fn new(scenario: Scenario, epsilon: f64, base_seed: u64) -> ServiceCore {
        let cache = EvalCache::new(&scenario.platform, &scenario.master, epsilon);
        ServiceCore { scenario, cache, base_seed }
    }

    /// Build the core from campaign CLI options exactly like the executor
    /// builds its first scenario job: the suite's first experiment point at
    /// its smallest `m` (honoring `--workers`/`--ncom`/`--wmin` overrides),
    /// scenario 0, generated from `--seed`.
    pub fn from_options(opts: &CliOptions) -> Result<ServiceCore, String> {
        let config = opts.campaign()?;
        let m = *config.m_values.iter().min().expect("suites have at least one m value");
        let config = config.with_m(m);
        let params = *config.points().first().expect("campaigns have at least one point");
        let seed = scenario_seed(config.base_seed, 0, 0);
        let scenario = Scenario::generate_with(params, &config.model, seed);
        Ok(ServiceCore::new(scenario, config.epsilon, config.base_seed))
    }

    /// Answer one decision request. The heuristic is instantiated from the
    /// registry with the request's (derived) seed over the shared cache, the
    /// view is normalized like the engine's pre-decision step, and the
    /// decision is returned with the request's decision latency and the
    /// cache hit/miss delta it incurred.
    pub fn decide(&self, req: &DecideRequest) -> Result<DecideReply, String> {
        let spec = parse_heuristic_named(&req.heuristic)?;
        let seed = req
            .seed
            .unwrap_or_else(|| scheduler_seed(self.base_seed, self.scenario.seed, req.trial));
        let mut scheduler = spec.build_with_cache(seed, &self.cache);
        let mut ctx = self.context_of(req)?;
        ctx.normalize();
        let before = self.cache.stats();
        let start = Instant::now();
        let decision = scheduler.decide(&ctx.view(
            &self.scenario.platform,
            &self.scenario.application,
            &self.scenario.master,
        ));
        let latency_us = start.elapsed().as_micros() as u64;
        let delta = self.cache.stats().since(&before);
        Ok(DecideReply {
            id: req.id,
            heuristic: spec.name(),
            assignment: match decision {
                Decision::KeepCurrent => None,
                Decision::NewConfiguration(a) => Some(a),
            },
            latency_us,
            cache: delta,
        })
    }

    /// Materialize a request's world state into an owned decision context.
    fn context_of(&self, req: &DecideRequest) -> Result<DecisionContext, String> {
        let platform = &self.scenario.platform;
        let states = parse_states(&req.workers, platform.num_workers())?;
        let mut ctx = DecisionContext::fresh(&states);
        if req.started_at > req.time {
            return Err(format!(
                "started_at {} is after the current time {}",
                req.started_at, req.time
            ));
        }
        ctx.time = req.time;
        ctx.iteration = req.iteration.max(req.completed);
        ctx.completed_iterations = req.completed;
        ctx.iteration_started_at = req.started_at;
        if let Some(holdings) = &req.holdings {
            if holdings.len() != states.len() {
                return Err(format!(
                    "holdings describe {} workers but the platform has {}",
                    holdings.len(),
                    states.len()
                ));
            }
            for (w, &(hp, dm, pt, pp)) in ctx.workers.iter_mut().zip(holdings) {
                w.dynamic.has_program = hp;
                w.dynamic.data_messages = dm;
                w.dynamic.partial_transfer = pt;
                w.dynamic.partial_is_program = pp;
            }
        }
        if let Some(current) = &req.current {
            let assignment = Assignment::new(current.entries.iter().copied());
            assignment.validate(platform, &self.scenario.application)?;
            if current.selected_at > req.time {
                return Err(format!(
                    "selected_at {} is after the current time {}",
                    current.selected_at, req.time
                ));
            }
            let workload = assignment.workload(platform);
            if current.done >= workload.max(1) {
                return Err(format!(
                    "done {} must be below the configuration workload {workload}",
                    current.done
                ));
            }
            ctx.current = Some(dg_sim::ActiveConfiguration {
                assignment,
                workload,
                computation_done: current.done,
                selected_at: current.selected_at,
            });
        }
        Ok(ctx)
    }
}

fn parse_states(codes: &str, expected: usize) -> Result<Vec<ProcState>, String> {
    if codes.len() != expected {
        return Err(format!(
            "workers describe {} states but the platform has {expected} workers",
            codes.len()
        ));
    }
    codes
        .chars()
        .map(|c| ProcState::from_code(c).ok_or(format!("invalid state code '{c}'")))
        .collect()
}

/// The answer to one decision request.
#[derive(Debug, Clone, PartialEq)]
pub struct DecideReply {
    /// Echo of the request's id.
    pub id: Option<u64>,
    /// Canonical name of the consulted heuristic.
    pub heuristic: String,
    /// The chosen assignment, or `None` for "keep the current configuration".
    pub assignment: Option<Assignment>,
    /// Wall-clock decision latency, microseconds.
    pub latency_us: u64,
    /// Cache hits/misses this decision incurred on the shared cache.
    pub cache: EvalCacheStats,
}

impl DecideReply {
    /// Render the reply as one JSONL line. `"decision_threads"` is always
    /// `1`: decisions are serial, and the field stays so the reply shape
    /// does not change for existing clients.
    pub fn render(&self) -> String {
        let id = match self.id {
            Some(id) => id.to_string(),
            None => "null".to_string(),
        };
        let (decision, assignment) = match &self.assignment {
            None => ("keep", "null".to_string()),
            Some(a) => ("new", render_entries(a.entries())),
        };
        format!(
            "{{\"id\":{id},\"ok\":true,\"op\":\"decide\",\"heuristic\":\"{}\",\
             \"decision\":\"{decision}\",\"assignment\":{assignment},\"latency_us\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"decision_threads\":1}}",
            escape(&self.heuristic),
            self.latency_us,
            self.cache.group_hits,
            self.cache.group_misses,
        )
    }
}

fn error_line(id: Option<u64>, message: &str) -> String {
    let id = match id {
        Some(id) => id.to_string(),
        None => "null".to_string(),
    };
    format!("{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}", escape(message))
}

/// One connection's online session: a registry-built scheduler, a live
/// [`StateTrace`] per worker and the world state the traces drive.
struct OnlineSession {
    heuristic: String,
    scheduler: Box<dyn Scheduler>,
    reevaluation: Reevaluation,
    traces: Vec<StateTrace>,
    ctx: DecisionContext,
}

/// What one serve loop did, reported at shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Requests answered (batch entries count individually).
    pub requests: u64,
    /// Error lines emitted.
    pub errors: u64,
    /// Unsolicited reschedule records emitted.
    pub reschedules: u64,
}

/// One connection's view of the service: the shared warm core plus the
/// connection's online session and counters.
pub struct ScheduleService {
    core: Arc<ServiceCore>,
    session: Option<OnlineSession>,
    summary: ServeSummary,
}

impl ScheduleService {
    /// A session over a shared core (one per connection; the cache stays
    /// shared through the core).
    pub fn new(core: Arc<ServiceCore>) -> ScheduleService {
        ScheduleService { core, session: None, summary: ServeSummary::default() }
    }

    /// The shared core.
    pub fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// Handle one request line; returns the reply lines to write, in order.
    /// Malformed input yields an error line, never a panic or an exit.
    pub fn handle_line(&mut self, line: &str) -> Vec<String> {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(err) => {
                self.summary.errors += 1;
                return vec![error_line(None, &err)];
            }
        };
        match request {
            Request::Decide(req) => {
                self.summary.requests += 1;
                match self.core.decide(&req) {
                    Ok(reply) => vec![reply.render()],
                    Err(err) => {
                        self.summary.errors += 1;
                        vec![error_line(req.id, &err)]
                    }
                }
            }
            Request::Batch(reqs) => vec![self.handle_batch(&reqs)],
            Request::Session(req) => self.start_session(&req),
            Request::Event { worker, state, time } => self.handle_event(worker, state, time),
            Request::Stats => {
                self.summary.requests += 1;
                let stats = self.core.cache.stats();
                vec![format!(
                    "{{\"ok\":true,\"op\":\"stats\",\"requests\":{},\"errors\":{},\
                     \"reschedules\":{},\"session\":{},\"cache_hits\":{},\"cache_misses\":{},\
                     \"hit_rate\":{:.4}}}",
                    self.summary.requests,
                    self.summary.errors,
                    self.summary.reschedules,
                    match &self.session {
                        Some(s) => format!("\"{}\"", escape(&s.heuristic)),
                        None => "null".to_string(),
                    },
                    stats.group_hits,
                    stats.group_misses,
                    stats.hit_rate()
                )]
            }
        }
    }

    /// Answer a request group as one line: every member is answered, in
    /// order, against the same warm cache (the group's members hit what the
    /// others compute), with the group's total latency and cache delta
    /// alongside the per-request replies.
    fn handle_batch(&mut self, reqs: &[DecideRequest]) -> String {
        let before = self.core.cache.stats();
        let start = Instant::now();
        let parts: Vec<String> = reqs
            .iter()
            .map(|req| {
                self.summary.requests += 1;
                match self.core.decide(req) {
                    Ok(reply) => reply.render(),
                    Err(err) => {
                        self.summary.errors += 1;
                        error_line(req.id, &err)
                    }
                }
            })
            .collect();
        let latency_us = start.elapsed().as_micros() as u64;
        let delta = self.core.cache.stats().since(&before);
        format!(
            "{{\"ok\":true,\"op\":\"batch\",\"replies\":[{}],\"latency_us\":{latency_us},\
             \"cache_hits\":{},\"cache_misses\":{},\"decision_threads\":1}}",
            parts.join(","),
            delta.group_hits,
            delta.group_misses,
        )
    }

    /// Start (or replace) this connection's online session and make the
    /// initial scheduling decision.
    fn start_session(&mut self, req: &DecideRequest) -> Vec<String> {
        self.summary.requests += 1;
        let spec = match parse_heuristic_named(&req.heuristic) {
            Ok(spec) => spec,
            Err(err) => {
                self.summary.errors += 1;
                return vec![error_line(req.id, &err)];
            }
        };
        let states = match parse_states(&req.workers, self.core.scenario.platform.num_workers()) {
            Ok(states) => states,
            Err(err) => {
                self.summary.errors += 1;
                return vec![error_line(req.id, &err)];
            }
        };
        let seed = req.seed.unwrap_or_else(|| {
            scheduler_seed(self.core.base_seed, self.core.scenario.seed, req.trial)
        });
        let scheduler = spec.build_with_cache(seed, &self.core.cache);
        let reevaluation = scheduler.reevaluation();
        let mut session = OnlineSession {
            heuristic: spec.name(),
            scheduler,
            reevaluation,
            traces: states.iter().map(|&s| StateTrace::constant(s, 1)).collect(),
            ctx: DecisionContext::fresh(&states),
        };
        let mut lines = vec![format!(
            "{{\"id\":{},\"ok\":true,\"op\":\"session\",\"heuristic\":\"{}\",\"workers\":{}}}",
            match req.id {
                Some(id) => id.to_string(),
                None => "null".to_string(),
            },
            escape(&session.heuristic),
            states.len()
        )];
        if let Some(record) = self.consult(&mut session) {
            self.summary.reschedules += 1;
            lines.push(record);
        }
        self.session = Some(session);
        lines
    }

    /// Ingest one availability transition into the online session.
    fn handle_event(&mut self, worker: usize, state: ProcState, time: u64) -> Vec<String> {
        self.summary.requests += 1;
        let fail = |err: String, errors: &mut u64| {
            *errors += 1;
            vec![error_line(None, &err)]
        };
        let Some(mut session) = self.session.take() else {
            return fail(
                "no online session (start one with {\"op\":\"session\",...})".to_string(),
                &mut self.summary.errors,
            );
        };
        if worker >= session.traces.len() {
            let err = format!("worker {worker} does not exist");
            self.session = Some(session);
            return fail(err, &mut self.summary.errors);
        }
        if time < session.ctx.time {
            let err =
                format!("event at slot {time} predates the session clock {}", session.ctx.time);
            self.session = Some(session);
            return fail(err, &mut self.summary.errors);
        }
        let changed = match session.traces[worker].append_transition(time, state) {
            Ok(changed) => changed,
            Err(err) => {
                self.session = Some(session);
                return fail(err, &mut self.summary.errors);
            }
        };

        // Advance the session's world to the event's slot: states from the
        // live traces, then the engine's DOWN consequences (crashed holdings,
        // a configuration aborted by a DOWN member).
        let held_before = {
            let d = &session.ctx.workers[worker].dynamic;
            d.has_program || d.data_messages > 0 || d.partial_transfer > 0
        };
        let was_member =
            session.ctx.current.as_ref().is_some_and(|cfg| cfg.assignment.contains(worker));
        session.ctx.time = time;
        for (q, trace) in session.traces.iter().enumerate() {
            session.ctx.workers[q].state = trace.state_at(time);
        }
        session.ctx.normalize();

        // The engine's wake rules, applied to a single outside event: it
        // always wakes for configuration-member transitions, for a crash
        // while holding program or data, and — while idle — for a worker
        // entering UP; outside transitions under an installed configuration
        // wake only schedulers that declared `on_outside_transitions`.
        let reconsult = changed
            && (was_member
                || (state.is_down() && held_before)
                || match session.ctx.current {
                    None => state.is_up(),
                    Some(_) => session.reevaluation.on_outside_transitions,
                });

        let mut lines = vec![format!(
            "{{\"ok\":true,\"op\":\"event\",\"time\":{time},\"worker\":{worker},\
             \"state\":\"{}\",\"changed\":{changed},\"reevaluated\":{reconsult}}}",
            state.code()
        )];
        if reconsult {
            if let Some(record) = self.consult(&mut session) {
                self.summary.reschedules += 1;
                lines.push(record);
            }
        }
        self.session = Some(session);
        lines
    }

    /// Consult the session's scheduler at its current world state; install a
    /// genuinely new configuration and return its reschedule record.
    fn consult(&self, session: &mut OnlineSession) -> Option<String> {
        let core = &self.core;
        let start = Instant::now();
        let decision = session.scheduler.decide(&session.ctx.view(
            &core.scenario.platform,
            &core.scenario.application,
            &core.scenario.master,
        ));
        let latency_us = start.elapsed().as_micros() as u64;
        match decision {
            Decision::KeepCurrent => None,
            Decision::NewConfiguration(a) => {
                let same = session.ctx.current.as_ref().is_some_and(|cfg| cfg.assignment == a);
                if same || a.is_empty() {
                    return None;
                }
                let record = format!(
                    "{{\"op\":\"reschedule\",\"time\":{},\"heuristic\":\"{}\",\
                     \"assignment\":{},\"latency_us\":{latency_us}}}",
                    session.ctx.time,
                    escape(&session.heuristic),
                    render_entries(a.entries())
                );
                session.ctx.install(a, &core.scenario.platform);
                Some(record)
            }
        }
    }

    /// Serve JSONL requests from `reader`, writing replies to `writer`, until
    /// EOF or a closed peer. Never exits on malformed input — a line that is
    /// not UTF-8 or longer than the line limit (`MAX_LINE_BYTES`, or
    /// `LINE_BYTES_PER_WORKER` per platform worker when that is more) gets an
    /// error reply like any other — and flushes after every request so pipes
    /// and sockets see replies promptly.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        mut reader: R,
        writer: &mut W,
    ) -> std::io::Result<ServeSummary> {
        let workers = self.core.scenario.platform.num_workers();
        let max_line = MAX_LINE_BYTES.max(LINE_BYTES_PER_WORKER.saturating_mul(workers));
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let limit = max_line as u64 + 1;
            if reader.by_ref().take(limit).read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            let replies = if buf.len() > max_line && buf.last() != Some(&b'\n') {
                reader.skip_until(b'\n')?;
                self.summary.errors += 1;
                let message = format!("request line is longer than {max_line} bytes");
                vec![error_line(None, &message)]
            } else {
                match std::str::from_utf8(&buf) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => {
                        let line = line
                            .strip_suffix('\n')
                            .map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
                        self.handle_line(line)
                    }
                    Err(err) => {
                        self.summary.errors += 1;
                        vec![error_line(None, &format!("request line is not UTF-8: {err}"))]
                    }
                }
            };
            for reply in replies {
                if let Err(err) = writeln!(writer, "{reply}") {
                    if err.kind() == std::io::ErrorKind::BrokenPipe {
                        return Ok(self.summary);
                    }
                    return Err(err);
                }
            }
            writer.flush()?;
        }
        Ok(self.summary)
    }
}

// ---------------------------------------------------------------------------
// The serve binary's options
// ---------------------------------------------------------------------------

/// Options of the `serve` binary: the campaign flags that select the warm
/// scenario, plus the optional TCP listener.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// The shared campaign flags (`--suite`, `--workers`, `--seed`, …).
    pub base: CliOptions,
    /// TCP listen address (`--listen ADDR`); stdin/stdout when absent.
    pub listen: Option<String>,
}

impl ServeOptions {
    /// Parse the serve binary's arguments: `--listen ADDR` is extracted here,
    /// everything else must be a valid campaign flag.
    pub fn parse<I, S>(args: I) -> Result<ServeOptions, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut listen = None;
        let mut rest: Vec<String> = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            if arg == "--listen" {
                listen = Some(
                    iter.next()
                        .map(|v| v.as_ref().to_string())
                        .ok_or("missing value for --listen")?,
                );
            } else {
                rest.push(arg.to_string());
            }
        }
        let base = CliOptions::parse(rest.iter().map(String::as_str))
            .map_err(|err| format!("{err}\nserve-only flags: [--listen ADDR]"))?;
        Ok(ServeOptions { base, listen })
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Result<ServeOptions, String> {
        ServeOptions::parse(std::env::args().skip(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_platform::ScenarioParams;

    fn core() -> Arc<ServiceCore> {
        let params = ScenarioParams {
            num_workers: 8,
            tasks_per_iteration: 5,
            ncom: 4,
            wmin: 2,
            iterations: 10,
        };
        let scenario = Scenario::generate(params, 11);
        Arc::new(ServiceCore::new(scenario, dg_analysis::DEFAULT_EPSILON, 20130520))
    }

    #[test]
    fn request_parsing_accepts_any_field_order_and_rejects_junk() {
        let a =
            DecideRequest::parse(r#"{"heuristic":"IE","workers":"UUUUUUUU","time":3}"#).unwrap();
        let b =
            DecideRequest::parse(r#"{"time":3,"workers":"UUUUUUUU","heuristic":"IE"}"#).unwrap();
        assert_eq!(a, b);
        assert!(DecideRequest::parse("").is_err());
        assert!(DecideRequest::parse("not json").is_err());
        assert!(DecideRequest::parse(r#"{"heuristic":"IE"}"#).is_err());
        assert!(DecideRequest::parse(r#"{"workers":"UU","heuristic":"IE","bogus":1}"#).is_err());
        assert!(DecideRequest::parse(r#"{"heuristic":"IE","workers":"UU"} trailing"#).is_err());
    }

    #[test]
    fn render_parse_round_trip_preserves_every_field() {
        let mut req = DecideRequest::new("Y-IE", "UURDR");
        req.id = Some(7);
        req.time = 19;
        req.iteration = 2;
        req.completed = 2;
        req.started_at = 15;
        req.trial = 3;
        req.current =
            Some(CurrentConfig { entries: vec![(0, 2), (4, 3)], selected_at: 16, done: 1 });
        req.holdings = Some(vec![
            (true, 2, 0, false),
            (false, 0, 3, true),
            (false, 0, 0, false),
            (true, 0, 0, false),
            (true, 3, 0, false),
        ]);
        let line = req.render();
        assert_eq!(DecideRequest::parse(&line).unwrap(), req);
        assert_eq!(Request::parse(&line).unwrap(), Request::Decide(req));
    }

    #[test]
    fn decide_answers_with_a_valid_assignment_and_cache_deltas() {
        let core = core();
        let workers = "U".repeat(8);
        let cold = core.decide(&DecideRequest::new("IE", &workers)).unwrap();
        let a = cold.assignment.as_ref().expect("IE schedules on an all-UP platform");
        a.validate(&core.scenario.platform, &core.scenario.application).unwrap();
        assert!(cold.cache.group_misses > 0, "cold decision must compute group sets");
        // The same request again: everything is served from the warm cache.
        let warm = core.decide(&DecideRequest::new("IE", &workers)).unwrap();
        assert_eq!(warm.assignment, cold.assignment);
        assert_eq!(warm.cache.group_misses, 0, "warm decision must be all hits");
        assert!(warm.cache.group_hits > 0);
    }

    #[test]
    fn decide_normalizes_down_workers_like_the_engine() {
        let core = core();
        // A configuration whose member 0 is DOWN: normalized away, so the
        // passive heuristic schedules fresh instead of keeping it.
        let mut req = DecideRequest::new("IE", "DUUUUUUU");
        req.current = Some(CurrentConfig { entries: vec![(0, 5)], selected_at: 0, done: 0 });
        let reply = core.decide(&req).unwrap();
        let a = reply.assignment.expect("aborted configuration must be replaced");
        assert!(!a.contains(0), "the DOWN worker cannot be re-enrolled");
    }

    #[test]
    fn service_loop_answers_errors_and_survives_malformed_input() {
        let mut service = ScheduleService::new(core());
        let garbage = service.handle_line("{{{{");
        assert_eq!(garbage.len(), 1);
        assert!(garbage[0].contains("\"ok\":false"), "{}", garbage[0]);
        let unknown = service.handle_line(r#"{"heuristic":"WARP","workers":"UUUUUUUU"}"#);
        assert!(unknown[0].contains("unknown heuristic"), "{}", unknown[0]);
        // Still serving after the errors.
        let ok = service.handle_line(r#"{"heuristic":"IE","workers":"UUUUUUUU"}"#);
        assert!(ok[0].contains("\"ok\":true"), "{}", ok[0]);
        let stats = service.handle_line(r#"{"op":"stats"}"#);
        assert!(stats[0].contains("\"errors\":2"), "{}", stats[0]);
    }

    #[test]
    fn deeply_nested_lines_are_refused_without_overflowing_the_stack() {
        let mut service = ScheduleService::new(core());
        let deep = "[".repeat(600_000);
        let refused = service.handle_line(&deep);
        assert_eq!(refused.len(), 1);
        assert!(refused[0].contains("\"ok\":false"), "{}", refused[0]);
        assert!(refused[0].contains("nesting deeper than"), "{}", refused[0]);
        // Nesting up to the limit still parses (then fails as a non-object).
        let nested = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(parse_line(&nested).unwrap_err().contains("must be a JSON object"));
        let ok = service.handle_line(r#"{"heuristic":"IE","workers":"UUUUUUUU","id":1}"#);
        assert!(ok[0].contains("\"id\":1") && ok[0].contains("\"ok\":true"), "{}", ok[0]);
    }

    #[test]
    fn batch_amortizes_the_warm_cache_across_the_group() {
        let mut service = ScheduleService::new(core());
        let one = r#"{"heuristic":"IAY","workers":"UUUUUUUU","id":1}"#;
        let two = r#"{"heuristic":"IAY","workers":"UUUUUUUU","id":2}"#;
        let lines = service.handle_line(&format!("{{\"batch\":[{one},{two}]}}"));
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.contains("\"op\":\"batch\""), "{line}");
        assert!(line.contains("\"id\":1") && line.contains("\"id\":2"), "{line}");
        // The second identical request must be pure hits: its reply carries
        // "cache_misses":0, so the line has exactly one non-zero miss count
        // (the first reply's, equal to the group total).
        let zero_miss = line.matches("\"cache_misses\":0").count();
        assert!(zero_miss >= 1, "second group member must be all hits: {line}");
    }

    #[test]
    fn online_session_ingests_events_and_reschedules_per_the_contract() {
        let mut service = ScheduleService::new(core());
        // Passive IE: installs once, never watches outsiders.
        let lines =
            service.handle_line(r#"{"op":"session","heuristic":"IE","workers":"UUUUUUUU"}"#);
        assert!(lines[0].contains("\"op\":\"session\""), "{}", lines[0]);
        assert_eq!(lines.len(), 2, "session start must install an initial configuration");
        assert!(lines[1].contains("\"op\":\"reschedule\""), "{}", lines[1]);
        let members: Vec<usize> =
            service.session.as_ref().unwrap().ctx.current.as_ref().unwrap().assignment.members();

        // An outsider crossing the UP boundary: passive schedulers sleep.
        let outsider = (0..8).find(|q| !members.contains(q)).expect("m=5 leaves outsiders");
        let lines = service.handle_line(&format!(
            "{{\"op\":\"event\",\"worker\":{outsider},\"state\":\"R\",\"time\":3}}"
        ));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"changed\":true,\"reevaluated\":false"), "{}", lines[0]);

        // Repeating the tail state is not a transition.
        let lines = service.handle_line(&format!(
            "{{\"op\":\"event\",\"worker\":{outsider},\"state\":\"R\",\"time\":5}}"
        ));
        assert!(lines[0].contains("\"changed\":false,\"reevaluated\":false"), "{}", lines[0]);

        // A member crashing always wakes the scheduler; IE rebuilds without it.
        let failed = members[0];
        let lines = service.handle_line(&format!(
            "{{\"op\":\"event\",\"worker\":{failed},\"state\":\"D\",\"time\":8}}"
        ));
        assert!(lines[0].contains("\"changed\":true,\"reevaluated\":true"), "{}", lines[0]);
        assert_eq!(lines.len(), 2, "a crashed member must force a reschedule");
        assert!(lines[1].contains("\"op\":\"reschedule\""), "{}", lines[1]);
        assert!(!lines[1].contains(&format!("[{failed},")), "{}", lines[1]);

        // Events must be time-ordered and in-range; the session survives.
        let err = service.handle_line(r#"{"op":"event","worker":0,"state":"U","time":1}"#);
        assert!(err[0].contains("\"ok\":false"), "{}", err[0]);
        let err = service.handle_line(r#"{"op":"event","worker":99,"state":"U","time":9}"#);
        assert!(err[0].contains("does not exist"), "{}", err[0]);
        assert!(service.session.is_some());
    }

    #[test]
    fn event_without_a_session_is_an_error_not_a_crash() {
        let mut service = ScheduleService::new(core());
        let lines = service.handle_line(r#"{"op":"event","worker":0,"state":"D","time":1}"#);
        assert!(lines[0].contains("no online session"), "{}", lines[0]);
    }

    #[test]
    fn serve_reads_until_eof_and_reports_a_summary() {
        let mut service = ScheduleService::new(core());
        let input = "\n{\"heuristic\":\"IE\",\"workers\":\"UUUUUUUU\",\"id\":5}\nnot json\n";
        let mut out = Vec::new();
        let summary = service.serve(std::io::Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"id\":5") && lines[0].contains("\"ok\":true"), "{text}");
        assert!(lines[1].contains("\"ok\":false"), "{text}");
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn serve_answers_a_non_utf8_line_and_keeps_serving() {
        let mut service = ScheduleService::new(core());
        let mut input = b"{\"heuristic\":\"IE\",\"workers\":\"UUUUUUUU\",\"id\":1}\n".to_vec();
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend_from_slice(b"{\"heuristic\":\"IE\",\"workers\":\"UUUUUUUU\",\"id\":2}\r\n");
        let mut out = Vec::new();
        let summary = service.serve(std::io::Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"id\":1") && lines[0].contains("\"ok\":true"), "{text}");
        assert!(lines[1].contains("\"ok\":false") && lines[1].contains("not UTF-8"), "{text}");
        assert!(lines[2].contains("\"id\":2") && lines[2].contains("\"ok\":true"), "{text}");
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn serve_refuses_an_overlong_line_and_keeps_serving() {
        let mut service = ScheduleService::new(core());
        let mut input = vec![b'x'; 4 << 20];
        input.push(b'\n');
        input.extend_from_slice(b"{\"heuristic\":\"IE\",\"workers\":\"UUUUUUUU\",\"id\":2}\n");
        let mut out = Vec::new();
        let summary = service.serve(std::io::Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"ok\":false") && lines[0].contains("longer than"), "{text}");
        assert!(lines[1].contains("\"id\":2") && lines[1].contains("\"ok\":true"), "{text}");
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn serve_line_limit_grows_with_the_platform() {
        // At 20,000 workers a line may hold 64 bytes per worker: a valid
        // request padded past 1 MiB is answered, one past the scaled limit
        // is refused.
        let params = ScenarioParams {
            num_workers: 20_000,
            tasks_per_iteration: 5,
            ncom: 4,
            wmin: 2,
            iterations: 10,
        };
        let scenario = Scenario::generate(params, 11);
        let core = Arc::new(ServiceCore::new(scenario, dg_analysis::DEFAULT_EPSILON, 7));
        let request = |id: u64, padding: usize| {
            let workers = "D".repeat(20_000);
            let pad = " ".repeat(padding);
            format!("{{\"heuristic\":\"IE\",{pad}\"workers\":\"{workers}\",\"id\":{id}}}\n")
        };
        let mut input = request(1, (1 << 20) + 1_000).into_bytes();
        input.extend_from_slice(request(2, 64 * 20_000).as_bytes());
        let mut out = Vec::new();
        let summary = ScheduleService::new(core).serve(input.as_slice(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"id\":1") && lines[0].contains("\"ok\":true"), "{text}");
        assert!(lines[1].contains("longer than 1280000 bytes"), "{text}");
        assert_eq!((summary.requests, summary.errors), (1, 1));
    }

    #[test]
    fn serve_options_extract_the_listener_and_delegate_the_rest() {
        let opts = ServeOptions::parse(["--suite", "paper", "--listen", "127.0.0.1:0"]).unwrap();
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.base.suite.as_deref(), Some("paper"));
        assert!(ServeOptions::parse(["--listen"]).is_err());
        let err = ServeOptions::parse(["--bogus"]).unwrap_err();
        assert!(err.contains("serve-only flags"), "{err}");
        let core =
            ServiceCore::from_options(&ServeOptions::parse(["--workers", "6"]).unwrap().base)
                .unwrap();
        assert_eq!(core.scenario.platform.num_workers(), 6);
        // The warm scenario is the paper suite's first point at its smallest m.
        assert_eq!(core.scenario.application.tasks_per_iteration, 5);
    }
}
