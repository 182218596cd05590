//! A text adapter: parse a network description (topology + FIBs +
//! requirements) from a simple line-based format and feed it to Flash.
//!
//! The paper ships Flash as a library and notes that "developers can
//! easily write adapters that feed rule updates to Flash" (§5.1); this
//! module is the reference adapter used by the `flash-cli` binary.
//!
//! # Format
//!
//! ```text
//! # comments and blank lines are ignored
//! node  s1                    # internal switch
//! external gw                 # external node (owns prefixes / exits)
//! link  s1 s2                 # bidirectional link
//!
//! fib s1                      # start of s1's FIB
//!   10.0.1.0/24 2 s2          # prefix, priority, next hop
//!   10.0.2.0/24 1 ecmp(s2,s3) # ECMP next-hop set
//!   0.0.0.0/0   0 drop        # explicit drop
//!
//! require waypoint 10.0.1.0/24 from s1 path "s1 .* s3 .* gw"
//! require cover    10.0.0.0/8  from s1 path "s1 (s2|s3) .* gw"
//! ```
//!
//! Destination addresses are IPv4 dotted quads over the 32-bit
//! [`HeaderLayout::dst_only`] layout.

use crate::error::FlashError;
use crate::verifier::Property;
use flash_netmodel::{
    ActionTable, DeviceId, HeaderLayout, Match, Rule, Topology,
};
use flash_spec::{parse_path_expr, Requirement};
use std::sync::Arc;

/// A parsed network bundle ready to verify.
#[derive(Debug)]
pub struct NetworkFile {
    pub topo: Arc<Topology>,
    pub actions: Arc<ActionTable>,
    pub layout: HeaderLayout,
    /// Per-device rule lists, in file order.
    pub fibs: Vec<(DeviceId, Vec<Rule>)>,
    pub properties: Vec<Property>,
}

/// The non-FIB portion of a network description: everything a verifier
/// needs *before* rules start flowing. Produced by the streaming entry
/// points, which hand each device's rules to a sink instead of
/// materializing the whole `Vec<(DeviceId, Vec<Rule>)>` — at hyper scale
/// the rule bodies dwarf the topology by orders of magnitude.
#[derive(Debug)]
pub struct NetworkHeader {
    pub topo: Arc<Topology>,
    pub actions: Arc<ActionTable>,
    pub layout: HeaderLayout,
    pub properties: Vec<Property>,
    /// Devices with `fib` blocks, in file order (repeats allowed).
    pub fib_devices: Vec<DeviceId>,
    /// Total rules across all `fib` blocks.
    pub total_rules: usize,
}

/// Adapter parse failures are [`FlashError::Parse`] values carrying the
/// 1-based line number; this alias keeps the seed's name working.
pub type AdapterError = FlashError;

fn err(line: usize, message: impl Into<String>) -> FlashError {
    FlashError::parse(line, message)
}

/// Parses `a.b.c.d/len` into `(value, len)` over 32 bits.
pub fn parse_prefix(s: &str, line: usize) -> Result<(u64, u32), FlashError> {
    let (addr, len) = s
        .split_once('/')
        .ok_or_else(|| err(line, format!("expected prefix a.b.c.d/len, got {s:?}")))?;
    let len: u32 = len
        .parse()
        .map_err(|_| err(line, format!("bad prefix length in {s:?}")))?;
    if len > 32 {
        return Err(err(line, format!("prefix length {len} > 32")));
    }
    let mut value: u64 = 0;
    let octets: Vec<&str> = addr.split('.').collect();
    if octets.len() != 4 {
        return Err(err(line, format!("expected 4 octets in {addr:?}")));
    }
    for o in octets {
        let b: u64 = o
            .parse()
            .map_err(|_| err(line, format!("bad octet {o:?}")))?;
        if b > 255 {
            return Err(err(line, format!("octet {b} > 255")));
        }
        value = (value << 8) | b;
    }
    Ok((value, len))
}

/// Formats a 32-bit value back into dotted-quad/len (for reports).
pub fn format_prefix(value: u64, len: u32) -> String {
    format!(
        "{}.{}.{}.{}/{}",
        (value >> 24) & 0xFF,
        (value >> 16) & 0xFF,
        (value >> 8) & 0xFF,
        value & 0xFF,
        len
    )
}

/// The shared line-streaming parse core. Each completed `fib` block is
/// flushed to `sink` the moment it ends (next directive or EOF), so only
/// one device's rules are resident at a time; header state (topology,
/// actions, requirements) accumulates normally. Drive it one line at a
/// time — the callers own the line buffer, so the buffered entry points
/// ([`parse_network_header`], [`stream_network_fibs`]) can reuse a single
/// `String` for the whole file instead of allocating one per line.
struct Parser {
    layout: HeaderLayout,
    topo: Topology,
    actions: ActionTable,
    requires: Vec<(usize, String)>,
    current: Option<(DeviceId, Vec<Rule>)>,
    fib_devices: Vec<DeviceId>,
    total_rules: usize,
}

impl Parser {
    fn new() -> Self {
        Parser {
            layout: HeaderLayout::dst_only(),
            topo: Topology::new(),
            actions: ActionTable::new(),
            requires: Vec::new(),
            current: None,
            fib_devices: Vec::new(),
            total_rules: 0,
        }
    }

    fn flush_block<F>(&mut self, sink: &mut F) -> Result<(), FlashError>
    where
        F: FnMut(DeviceId, Vec<Rule>) -> Result<(), FlashError>,
    {
        if let Some((dev, rules)) = self.current.take() {
            self.total_rules += rules.len();
            sink(dev, rules)?;
        }
        Ok(())
    }

    fn line<F>(&mut self, lineno: usize, raw: &str, sink: &mut F) -> Result<(), FlashError>
    where
        F: FnMut(DeviceId, Vec<Rule>) -> Result<(), FlashError>,
    {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return Ok(());
        }
        let mut parts = line.split_whitespace();
        let Some(keyword) = parts.next() else {
            // Unreachable (blank lines are filtered above), but a parse
            // error beats a panic if the filtering ever changes.
            return Err(err(lineno, "empty directive"));
        };
        // Any non-rule directive terminates the open fib block.
        if keyword != "fib" && !keyword.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            self.flush_block(sink)?;
        }
        match keyword {
            "node" | "external" => {
                let name = parts
                    .next()
                    .ok_or_else(|| err(lineno, "expected a node name"))?;
                if self.topo.lookup(name).is_some() {
                    return Err(err(lineno, format!("duplicate node {name:?}")));
                }
                let id = if keyword == "external" {
                    self.topo.add_external(name)
                } else {
                    self.topo.add_device(name)
                };
                // Labels: key=value pairs after the name.
                for kv in parts {
                    if let Some((k, v)) = kv.split_once('=') {
                        self.topo.set_label(id, k, v);
                    } else {
                        return Err(err(lineno, format!("expected key=value, got {kv:?}")));
                    }
                }
            }
            "link" => {
                let a = parts
                    .next()
                    .and_then(|n| self.topo.lookup(n))
                    .ok_or_else(|| err(lineno, "unknown link endpoint"))?;
                let b = parts
                    .next()
                    .and_then(|n| self.topo.lookup(n))
                    .ok_or_else(|| err(lineno, "unknown link endpoint"))?;
                self.topo.add_bilink(a, b);
            }
            "fib" => {
                self.flush_block(sink)?;
                let name = parts
                    .next()
                    .ok_or_else(|| err(lineno, "expected a device name"))?;
                let dev = self
                    .topo
                    .lookup(name)
                    .ok_or_else(|| err(lineno, format!("unknown device {name:?}")))?;
                self.fib_devices.push(dev);
                self.current = Some((dev, Vec::new()));
            }
            "require" => {
                self.requires.push((lineno, line.to_string()));
            }
            _ => {
                // Inside a fib block: "prefix priority action".
                let Some((_, rules)) = self.current.as_mut() else {
                    return Err(err(lineno, format!("unexpected directive {keyword:?}")));
                };
                let (value, len) = parse_prefix(keyword, lineno)?;
                let priority: i64 = parts
                    .next()
                    .ok_or_else(|| err(lineno, "expected a priority"))?
                    .parse()
                    .map_err(|_| err(lineno, "bad priority"))?;
                let action_str = parts
                    .next()
                    .ok_or_else(|| err(lineno, "expected an action"))?;
                let action = parse_action(action_str, &self.topo, &mut self.actions, lineno)?;
                rules.push(Rule::new(
                    Match::dst_prefix(&self.layout, value, len),
                    priority,
                    action,
                ));
            }
        }
        Ok(())
    }

    fn finish<F>(mut self, sink: &mut F) -> Result<NetworkHeader, FlashError>
    where
        F: FnMut(DeviceId, Vec<Rule>) -> Result<(), FlashError>,
    {
        self.flush_block(sink)?;
        // Requirements are parsed after the topology so names resolve.
        let mut properties = vec![Property::LoopFreedom];
        for (lineno, line) in &self.requires {
            properties.push(parse_require(line, *lineno, &self.topo, &self.layout)?);
        }
        Ok(NetworkHeader {
            topo: Arc::new(self.topo),
            actions: Arc::new(self.actions),
            layout: self.layout,
            properties,
            fib_devices: self.fib_devices,
            total_rules: self.total_rules,
        })
    }
}

fn parse_lines<I, S, F>(lines: I, sink: &mut F) -> Result<NetworkHeader, FlashError>
where
    I: Iterator<Item = std::io::Result<S>>,
    S: AsRef<str>,
    F: FnMut(DeviceId, Vec<Rule>) -> Result<(), FlashError>,
{
    let mut parser = Parser::new();
    let mut lineno = 0usize;
    for raw in lines {
        lineno += 1;
        let raw = raw.map_err(|e| err(lineno, format!("io: {e}")))?;
        parser.line(lineno, raw.as_ref(), sink)?;
    }
    parser.finish(sink)
}

/// As [`parse_lines`], reading from a `BufRead` through one reused line
/// buffer: the steady-state loop performs no per-line allocation (the
/// `lines()` adapter would allocate a fresh `String` for every line —
/// at 10⁷ rules that is 10⁷ short-lived heap allocations on the hot
/// ingest path).
fn parse_buffered<R, F>(mut reader: R, sink: &mut F) -> Result<NetworkHeader, FlashError>
where
    R: std::io::BufRead,
    F: FnMut(DeviceId, Vec<Rule>) -> Result<(), FlashError>,
{
    let mut parser = Parser::new();
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        lineno += 1;
        if reader
            .read_line(&mut buf)
            .map_err(|e| err(lineno, format!("io: {e}")))?
            == 0
        {
            break;
        }
        parser.line(lineno, &buf, sink)?;
    }
    parser.finish(sink)
}

/// Parses the full network file into memory.
pub fn parse_network(input: &str) -> Result<NetworkFile, FlashError> {
    let mut fibs: Vec<(DeviceId, Vec<Rule>)> = Vec::new();
    let header = parse_lines(input.lines().map(std::io::Result::Ok), &mut |dev, rules| {
        fibs.push((dev, rules));
        Ok(())
    })?;
    Ok(NetworkFile {
        topo: header.topo,
        actions: header.actions,
        layout: header.layout,
        fibs,
        properties: header.properties,
    })
}

/// First pass of the two-pass streaming ingest: parses the topology,
/// actions and requirements, counting rules but dropping their bodies.
/// The returned header carries everything needed to construct a verifier;
/// a second pass over the same input via [`stream_network_fibs`] then
/// feeds the rules through without ever materializing more than one
/// device's FIB.
pub fn parse_network_header(reader: impl std::io::BufRead) -> Result<NetworkHeader, FlashError> {
    parse_buffered(reader, &mut |_, _| Ok(()))
}

/// Second pass of the streaming ingest: re-parses the input, handing each
/// device's rules to `sink` as its `fib` block completes. Parsing is
/// deterministic, so the topology, action ids and device ids seen by the
/// sink agree exactly with the header from [`parse_network_header`] on
/// the same input.
pub fn stream_network_fibs<R, F>(reader: R, mut sink: F) -> Result<NetworkHeader, FlashError>
where
    R: std::io::BufRead,
    F: FnMut(DeviceId, Vec<Rule>) -> Result<(), FlashError>,
{
    parse_buffered(reader, &mut sink)
}

/// Partitioned second pass over one partition of the `fib` blocks.
///
/// Pass 1 ([`parse_network_header`]) already built the complete topology
/// and action table, so a pass-2 reader does not need to re-execute any
/// header directive: it skims the file tracking only `fib` block
/// boundaries (block ordinal `i` is `header.fib_devices[i]` by
/// construction — parsing is deterministic) and fully parses rule lines
/// only inside blocks with `ordinal % parts == part`, resolving actions
/// read-only via [`ActionTable::lookup`]. Rule lines of foreign blocks
/// are skipped after a one-byte classification, which is what makes
/// `parts` readers over the same file genuinely cheaper than `parts`
/// full parses. `sink` receives `(ordinal, device, rules)` for owned
/// blocks, in file order within the partition.
///
/// An action absent from the pass-1 table is a parse error: it means the
/// file changed between the passes.
pub fn stream_network_fibs_partition<R, F>(
    mut reader: R,
    header: &NetworkHeader,
    part: usize,
    parts: usize,
    mut sink: F,
) -> Result<(), FlashError>
where
    R: std::io::BufRead,
    F: FnMut(usize, DeviceId, Vec<Rule>) -> Result<(), FlashError>,
{
    assert!(parts > 0 && part < parts, "partition {part} of {parts}");
    let layout = &header.layout;
    let mut resolver = ActionResolver::new();
    let mut buf = String::new();
    let mut lineno = 0usize;
    // Ordinal of the currently open fib block; usize::MAX before the
    // first one. `open` holds the rules of an *owned* open block.
    let mut ordinal = usize::MAX;
    let mut open: Option<Vec<Rule>> = None;
    loop {
        buf.clear();
        lineno += 1;
        let eof = reader
            .read_line(&mut buf)
            .map_err(|e| err(lineno, format!("io: {e}")))?
            == 0;
        let line = if eof {
            ""
        } else {
            buf.split('#').next().unwrap_or("").trim()
        };
        if !eof && line.is_empty() {
            continue;
        }
        let first = line.as_bytes().first().copied();
        let is_rule = first.is_some_and(|c| c.is_ascii_digit());
        if is_rule {
            let Some(rules) = open.as_mut() else {
                continue; // foreign block: classification only
            };
            let mut parts_iter = line.split_whitespace();
            let prefix = parts_iter
                .next()
                .ok_or_else(|| err(lineno, "expected a prefix"))?;
            let (value, len) = parse_prefix(prefix, lineno)?;
            let priority: i64 = parts_iter
                .next()
                .ok_or_else(|| err(lineno, "expected a priority"))?
                .parse()
                .map_err(|_| err(lineno, "bad priority"))?;
            let action_str = parts_iter
                .next()
                .ok_or_else(|| err(lineno, "expected an action"))?;
            let action =
                resolver.resolve(action_str, &header.topo, &header.actions, lineno)?;
            rules.push(Rule::new(
                Match::dst_prefix(layout, value, len),
                priority,
                action,
            ));
            continue;
        }
        // A directive (or EOF) closes any open block.
        if let Some(rules) = open.take() {
            sink(ordinal, header.fib_devices[ordinal], rules)?;
        }
        if eof {
            return Ok(());
        }
        if line.split_whitespace().next() == Some("fib") {
            ordinal = ordinal.wrapping_add(1);
            if ordinal >= header.fib_devices.len() {
                return Err(err(
                    lineno,
                    "more fib blocks than the pass-1 header (file changed between passes?)",
                ));
            }
            if ordinal % parts == part {
                open = Some(Vec::new());
            }
        }
    }
}

/// Parallel second pass: `threads` reader threads each own the `fib`
/// blocks with `ordinal % threads == t`, re-scan the input via their own
/// reader from `open`, and run `map` on each owned block's rules —
/// parse, action resolution, and any routing work inside `map` for block
/// i+1 all overlap with the caller consuming block i. The caller's
/// `sink` still sees blocks in strict file order: mapped results park in
/// a reorder window bounded to ~2 blocks per reader, which is also the
/// pipeline's backpressure. `threads <= 1` degrades to a sequential
/// single-partition scan. Returns the total rule count streamed.
pub fn stream_network_fibs_parallel<R, O, T, M, F>(
    open: O,
    header: &NetworkHeader,
    threads: usize,
    map: M,
    mut sink: F,
) -> Result<usize, FlashError>
where
    R: std::io::BufRead,
    O: Fn() -> std::io::Result<R> + Sync,
    T: Send,
    M: Fn(DeviceId, Vec<Rule>) -> T + Sync,
    F: FnMut(DeviceId, T) -> Result<(), FlashError>,
{
    let blocks = header.fib_devices.len();
    if threads <= 1 || blocks <= 1 {
        let reader = open().map_err(|e| err(0, format!("io: {e}")))?;
        let mut total = 0usize;
        return stream_network_fibs_partition(reader, header, 0, 1, |_, dev, rules| {
            total += rules.len();
            sink(dev, map(dev, rules))
        })
        .map(|()| total);
    }
    let threads = threads.min(blocks);
    let window = threads * 2;
    let shared = ReorderWindow::<(usize, T)>::new();
    let mut consumed = Ok(0usize);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let shared = &shared;
            let map = &map;
            let open = &open;
            scope.spawn(move || {
                let reader = match open() {
                    Ok(r) => r,
                    Err(e) => {
                        shared.fail(err(0, format!("io: {e}")));
                        return;
                    }
                };
                let r = stream_network_fibs_partition(reader, header, t, threads, |i, dev, rules| {
                    if !shared.wait_for_slot(i, window) {
                        return Err(err(0, "aborted"));
                    }
                    let count = rules.len();
                    shared.publish(i, (count, map(dev, rules)));
                    Ok(())
                });
                if let Err(e) = r {
                    shared.fail(e);
                }
            });
        }
        // Consumer: the caller's thread drains the window in order.
        let mut total = 0usize;
        for (i, &dev) in header.fib_devices.iter().enumerate() {
            match shared.take(i) {
                Ok((count, item)) => {
                    total += count;
                    if let Err(e) = sink(dev, item) {
                        shared.abort();
                        consumed = Err(e);
                        return;
                    }
                }
                Err(e) => {
                    consumed = Err(e);
                    return;
                }
            }
        }
        consumed = Ok(total);
    });
    consumed
}

/// Read-only action resolution for the partitioned pass: hop sets are
/// built in a reused scratch `Forward`, normalized in place, and probed
/// with [`ActionTable::lookup`] — no table mutation, no per-line heap
/// allocation.
struct ActionResolver {
    scratch: flash_netmodel::Action,
}

impl ActionResolver {
    fn new() -> Self {
        ActionResolver {
            scratch: flash_netmodel::Action::Forward(Vec::new()),
        }
    }

    fn resolve(
        &mut self,
        s: &str,
        topo: &Topology,
        actions: &ActionTable,
        lineno: usize,
    ) -> Result<flash_netmodel::ActionId, FlashError> {
        if s == "drop" {
            return Ok(flash_netmodel::ACTION_DROP);
        }
        let flash_netmodel::Action::Forward(hops) = &mut self.scratch else {
            unreachable!()
        };
        hops.clear();
        if let Some(inner) = s.strip_prefix("ecmp(").and_then(|r| r.strip_suffix(')')) {
            for n in inner.split(',') {
                let n = n.trim();
                hops.push(
                    topo.lookup(n)
                        .ok_or_else(|| err(lineno, format!("unknown next hop {n:?}")))?,
                );
            }
            if hops.is_empty() {
                return Err(err(lineno, "empty ecmp() set"));
            }
            hops.sort_unstable();
            hops.dedup();
        } else {
            hops.push(
                topo.lookup(s)
                    .ok_or_else(|| err(lineno, format!("unknown next hop {s:?}")))?,
            );
        }
        actions.lookup(&self.scratch).ok_or_else(|| {
            err(
                lineno,
                "action not in the pass-1 table (file changed between passes?)",
            )
        })
    }
}

/// Bounded reorder window between parallel pass-2 readers and the
/// in-order consumer; slot `i` holds block ordinal `i`'s mapped result
/// until every earlier block has been emitted.
struct ReorderWindow<T> {
    state: std::sync::Mutex<ReorderState<T>>,
    cv: std::sync::Condvar,
}

struct ReorderState<T> {
    slots: std::collections::HashMap<usize, T>,
    next_emit: usize,
    error: Option<FlashError>,
    aborted: bool,
}

impl<T> ReorderWindow<T> {
    fn new() -> Self {
        ReorderWindow {
            state: std::sync::Mutex::new(ReorderState {
                slots: std::collections::HashMap::new(),
                next_emit: 0,
                error: None,
                aborted: false,
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Blocks until ordinal `i` is within `window` of the consumer (the
    /// backpressure bound). Returns false if the pipeline was aborted.
    fn wait_for_slot(&self, i: usize, window: usize) -> bool {
        let mut g = self.state.lock().expect("reorder window poisoned");
        while !g.aborted && g.error.is_none() && i >= g.next_emit + window {
            g = self.cv.wait(g).expect("reorder window poisoned");
        }
        !g.aborted && g.error.is_none()
    }

    fn publish(&self, i: usize, item: T) {
        let mut g = self.state.lock().expect("reorder window poisoned");
        g.slots.insert(i, item);
        self.cv.notify_all();
    }

    fn fail(&self, e: FlashError) {
        let mut g = self.state.lock().expect("reorder window poisoned");
        if g.error.is_none() {
            g.error = Some(e);
        }
        self.cv.notify_all();
    }

    fn abort(&self) {
        let mut g = self.state.lock().expect("reorder window poisoned");
        g.aborted = true;
        self.cv.notify_all();
    }

    fn take(&self, i: usize) -> Result<T, FlashError> {
        let mut g = self.state.lock().expect("reorder window poisoned");
        loop {
            if let Some(e) = g.error.take() {
                g.aborted = true;
                self.cv.notify_all();
                return Err(e);
            }
            if let Some(v) = g.slots.remove(&i) {
                g.next_emit = i + 1;
                self.cv.notify_all();
                return Ok(v);
            }
            g = self.cv.wait(g).expect("reorder window poisoned");
        }
    }
}

fn parse_action(
    s: &str,
    topo: &Topology,
    actions: &mut ActionTable,
    lineno: usize,
) -> Result<flash_netmodel::ActionId, FlashError> {
    if s == "drop" {
        return Ok(flash_netmodel::ACTION_DROP);
    }
    if let Some(inner) = s.strip_prefix("ecmp(").and_then(|r| r.strip_suffix(')')) {
        let mut hops = Vec::new();
        for n in inner.split(',') {
            let d = topo
                .lookup(n.trim())
                .ok_or_else(|| err(lineno, format!("unknown next hop {n:?}")))?;
            hops.push(d);
        }
        if hops.is_empty() {
            return Err(err(lineno, "empty ecmp() set"));
        }
        return Ok(actions.ecmp(hops));
    }
    let d = topo
        .lookup(s)
        .ok_or_else(|| err(lineno, format!("unknown next hop {s:?}")))?;
    Ok(actions.fwd(d))
}

/// `require <name> <prefix> from <src>[,<src>…] path "<expr>"`
/// with the optional keyword `cover` before the prefix.
fn parse_require(
    line: &str,
    lineno: usize,
    topo: &Topology,
    layout: &HeaderLayout,
) -> Result<Property, FlashError> {
    let rest = line
        .strip_prefix("require")
        .ok_or_else(|| err(lineno, "expected a 'require' directive"))?
        .trim();
    let mut parts = rest.split_whitespace();
    let name = parts
        .next()
        .ok_or_else(|| err(lineno, "expected a requirement name"))?;
    let mut next = parts
        .next()
        .ok_or_else(|| err(lineno, "expected a prefix"))?;
    let cover = next == "cover";
    if cover {
        next = parts
            .next()
            .ok_or_else(|| err(lineno, "expected a prefix after 'cover'"))?;
    }
    let (value, len) = parse_prefix(next, lineno)?;
    match parts.next() {
        Some("from") => {}
        other => return Err(err(lineno, format!("expected 'from', got {other:?}"))),
    }
    let srcs_str = parts
        .next()
        .ok_or_else(|| err(lineno, "expected source device(s)"))?;
    let mut sources = Vec::new();
    for s in srcs_str.split(',') {
        sources.push(
            topo.lookup(s.trim())
                .ok_or_else(|| err(lineno, format!("unknown source {s:?}")))?,
        );
    }
    match parts.next() {
        Some("path") => {}
        other => return Err(err(lineno, format!("expected 'path', got {other:?}"))),
    }
    // The expression is the quoted remainder of the line. Split on the
    // standalone keyword (" path ") so device names containing "path"
    // don't truncate the line.
    let expr_str = line
        .split_once(" path ")
        .map(|(_, e)| e.trim().trim_matches('"'))
        .filter(|e| !e.is_empty())
        .ok_or_else(|| err(lineno, "expected a quoted path expression"))?;
    let expr = parse_path_expr(expr_str)
        .map_err(|e| err(lineno, format!("bad path expression: {e}")))?;
    let mut requirement = Requirement::new(
        name,
        Match::dst_prefix(layout, value, len),
        sources,
        expr,
    );
    if cover {
        requirement = requirement.with_cover();
    }
    Ok(Property::Requirement {
        requirement,
        dests: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Figure-2-style network
node s1 tier=edge
node s2
node s3
external a
external gw
link s1 s2
link s2 s3
link s1 s3
link s1 a
link s3 gw

fib s1
  10.0.1.0/24 2 a
  10.0.2.0/24 1 a
  0.0.0.0/0   0 s3

fib s2
  0.0.0.0/0 0 s1

fib s3
  10.0.1.0/24 2 s1
  10.0.2.0/24 1 ecmp(s1,s2)
  0.0.0.0/0   0 gw

require http-detour 10.0.1.0/24 from s3 path "s3 .* s1 a"
"#;

    #[test]
    fn parse_prefix_roundtrip() {
        let (v, l) = parse_prefix("10.0.1.0/24", 1).unwrap();
        assert_eq!(v, 0x0A000100);
        assert_eq!(l, 24);
        assert_eq!(format_prefix(v, l), "10.0.1.0/24");
        let (v, l) = parse_prefix("0.0.0.0/0", 1).unwrap();
        assert_eq!((v, l), (0, 0));
    }

    #[test]
    fn parse_prefix_errors() {
        assert!(parse_prefix("10.0.1.0", 1).is_err());
        assert!(parse_prefix("10.0.1/24", 1).is_err());
        assert!(parse_prefix("10.0.1.0/33", 1).is_err());
        assert!(parse_prefix("10.0.1.999/24", 1).is_err());
    }

    #[test]
    fn parse_sample_network() {
        let net = parse_network(SAMPLE).unwrap();
        assert_eq!(net.topo.device_count(), 5);
        assert_eq!(net.fibs.len(), 3);
        assert_eq!(net.fibs[0].1.len(), 3);
        // labels survive
        let s1 = net.topo.lookup("s1").unwrap();
        assert_eq!(net.topo.label(s1, "tier"), Some("edge"));
        // ECMP action resolved
        let s3_rules = &net.fibs[2].1;
        let ecmp_rule = &s3_rules[1];
        assert_eq!(net.actions.next_hops(ecmp_rule.action).len(), 2);
        // loop-freedom + 1 requirement
        assert_eq!(net.properties.len(), 2);
    }

    #[test]
    fn streaming_parse_agrees_with_batch() {
        let net = parse_network(SAMPLE).unwrap();
        // Pass 1: header only.
        let header = parse_network_header(std::io::Cursor::new(SAMPLE)).unwrap();
        assert_eq!(header.topo.device_count(), net.topo.device_count());
        assert_eq!(header.total_rules, net.fibs.iter().map(|(_, r)| r.len()).sum::<usize>());
        assert_eq!(
            header.fib_devices,
            net.fibs.iter().map(|(d, _)| *d).collect::<Vec<_>>()
        );
        assert_eq!(header.properties.len(), net.properties.len());
        // Pass 2: streamed blocks arrive in file order with identical rules.
        let mut streamed = Vec::new();
        stream_network_fibs(std::io::Cursor::new(SAMPLE), |dev, rules| {
            streamed.push((dev, rules));
            Ok(())
        })
        .unwrap();
        assert_eq!(streamed, net.fibs);
    }

    #[test]
    fn partitioned_pass_matches_batch() {
        let net = parse_network(SAMPLE).unwrap();
        let header = parse_network_header(std::io::Cursor::new(SAMPLE)).unwrap();
        for parts in [1usize, 2, 3] {
            let mut got: Vec<(usize, DeviceId, Vec<Rule>)> = Vec::new();
            for part in 0..parts {
                stream_network_fibs_partition(
                    std::io::Cursor::new(SAMPLE),
                    &header,
                    part,
                    parts,
                    |i, dev, rules| {
                        got.push((i, dev, rules));
                        Ok(())
                    },
                )
                .unwrap();
            }
            got.sort_by_key(|(i, _, _)| *i);
            let flat: Vec<(DeviceId, Vec<Rule>)> =
                got.into_iter().map(|(_, d, r)| (d, r)).collect();
            assert_eq!(flat, net.fibs, "{parts} partitions");
        }
    }

    #[test]
    fn parallel_pass_matches_batch_in_order() {
        let net = parse_network(SAMPLE).unwrap();
        let header = parse_network_header(std::io::Cursor::new(SAMPLE)).unwrap();
        for threads in [1usize, 2, 4] {
            let mut got: Vec<(DeviceId, Vec<Rule>)> = Vec::new();
            let total = stream_network_fibs_parallel(
                || Ok(std::io::Cursor::new(SAMPLE)),
                &header,
                threads,
                |_, rules| rules,
                |dev, rules| {
                    got.push((dev, rules));
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(total, header.total_rules, "{threads} threads");
            assert_eq!(got, net.fibs, "{threads} threads: file order preserved");
        }
    }

    #[test]
    fn partitioned_pass_rejects_stale_table() {
        // An action table from a *different* file misses lookups.
        let header = parse_network_header(std::io::Cursor::new(SAMPLE)).unwrap();
        let stale = NetworkHeader {
            topo: header.topo.clone(),
            actions: Arc::new(ActionTable::new()),
            layout: header.layout.clone(),
            properties: vec![],
            fib_devices: header.fib_devices.clone(),
            total_rules: header.total_rules,
        };
        let e = stream_network_fibs_partition(
            std::io::Cursor::new(SAMPLE),
            &stale,
            0,
            1,
            |_, _, _| Ok(()),
        )
        .unwrap_err();
        assert!(e.to_string().contains("pass-1"), "{e}");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "node a\nlink a b\n";
        let e = parse_network(bad).unwrap_err();
        assert_eq!(e.parse_line(), Some(2));
        let bad = "fib nowhere\n";
        let e = parse_network(bad).unwrap_err();
        assert_eq!(e.parse_line(), Some(1));
        let bad = "node a\nnode a\n";
        let e = parse_network(bad).unwrap_err();
        assert_eq!(e.parse_line(), Some(2));
        let bad = "10.0.0.0/8 1 x\n";
        let e = parse_network(bad).unwrap_err();
        assert_eq!(e.parse_line(), Some(1));
        assert!(matches!(e, crate::error::FlashError::Parse { .. }));
        assert!(e.to_string().starts_with("line 1:"));
    }

    #[test]
    fn cover_requirement_parses() {
        let src = "node a\nnode b\nlink a b\nrequire r cover 10.0.0.0/8 from a path \"a b\"\n";
        let net = parse_network(src).unwrap();
        match &net.properties[1] {
            Property::Requirement { requirement, .. } => assert!(requirement.cover),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn end_to_end_verification_of_sample() {
        use crate::verifier::{SubspaceVerifier, SubspaceVerifierConfig};
        let net = parse_network(SAMPLE).unwrap();
        let mut v = SubspaceVerifier::new(SubspaceVerifierConfig {
            topo: net.topo.clone(),
            actions: net.actions.clone(),
            layout: net.layout.clone(),
            subspace: flash_imt::SubspaceSpec::whole(),
            bst: usize::MAX,
            properties: net.properties.clone(),
        });
        let mut reports = Vec::new();
        for (dev, rules) in &net.fibs {
            let updates = rules
                .iter()
                .cloned()
                .map(flash_netmodel::RuleUpdate::insert)
                .collect();
            reports.extend(v.ingest_synchronized(*dev, updates));
        }
        // The sample routes 10.0.1.0/24 from s3 via s1 to a: satisfied.
        assert!(reports.iter().any(|r| matches!(
            r,
            crate::verifier::PropertyReport::Satisfied { requirement } if requirement == "http-detour"
        )), "{reports:?}");
        assert!(!reports
            .iter()
            .any(|r| matches!(r, crate::verifier::PropertyReport::LoopFound { .. })));
    }
}
