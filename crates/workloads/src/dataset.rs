//! HeTu-style on-disk datasets: a directory layout for hyper-scale data
//! planes that can be generated, archived, and re-verified without ever
//! holding the whole rule set in memory.
//!
//! # Layout
//!
//! ```text
//! <dir>/topology.json       devices (name, external, labels) + links
//! <dir>/packet_space.json   header fields: [{"name","bits"}, …]
//! <dir>/edge_devices        newline-separated edge (ToR) device names
//! <dir>/data/routes/<dev>   per-device route file, one rule per line:
//!                           <hex-value>/<len> <priority> <action>
//! ```
//!
//! where `<action>` is `drop`, a next-hop device name, or
//! `ecmp(a,b,…)`. Prefix values are hex over the `dst` field's width
//! (field widths here are not limited to IPv4's 32 bits), so route files
//! stay byte-stable across layouts. A value may set no bit above the
//! width or below its prefix length, so each predicate has one spelling
//! ([`parse_route_prefix`]).
//!
//! The loader is two-phase by design, mirroring
//! `flash_core::adapter`'s streaming ingest: [`load_header`] reads the
//! (small) topology and packet-space files; [`DatasetHeader::stream_routes`]
//! then walks the per-device route files handing each device's rules to a
//! sink in device order — two readers parse ahead through a bounded
//! reorder window, so only a few devices' FIBs are resident at a time.
//! Calling it once with a discarding sink builds the complete
//! [`ActionTable`] for verifier construction, numbered exactly as one
//! sequential reader would number it; the second pass resolves actions
//! read-only against that completed table
//! ([`DatasetHeader::stream_routes_resolved`]), so action ids agree
//! across the two passes by construction — which also makes the second
//! pass partitionable: [`DatasetHeader::stream_routes_parallel`]
//! fans the route files out over N reader threads (each parsing and
//! mapping its slice with only a shared `&ActionTable`) while the caller
//! consumes devices strictly in device-id order through a bounded reorder
//! window.
//!
//! Each reader reads a route file whole and answers a repeated action
//! text or prefix from memos of its own (`ReaderMemo`) before it goes to
//! the shared action and match interners.
//!
//! JSON is hand-rolled — written directly, parsed with the minimal
//! recursive-descent reader at the bottom of this module — to keep the
//! workspace dependency-free.

use crate::fabric::{fat_tree, FatTree};
use crate::fibgen::apsp_stream;
use flash_netmodel::{
    Action, ActionId, ActionTable, DeviceId, FieldId, HeaderLayout, MatchKind, Rule, Topology,
};
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Reader threads of the interning pass, [`DatasetHeader::stream_routes`].
const INTERN_READERS: usize = 2;

/// Dataset I/O or format failure.
#[derive(Debug)]
pub enum DatasetError {
    Io(std::io::Error),
    /// Malformed file contents; carries file and explanation.
    Parse(String),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "dataset io: {e}"),
            DatasetError::Parse(m) => write!(f, "dataset: {m}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e)
    }
}

fn perr(msg: impl Into<String>) -> DatasetError {
    DatasetError::Parse(msg.into())
}

/// What a generated or exported dataset contains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DatasetSummary {
    pub devices: usize,
    pub links: usize,
    pub edge_devices: usize,
    pub rules: usize,
}

/// The in-memory header of an on-disk dataset: everything except the
/// rules.
#[derive(Debug)]
pub struct DatasetHeader {
    dir: PathBuf,
    pub topo: Arc<Topology>,
    pub layout: HeaderLayout,
    /// Edge (ToR) devices — the roots the subspace planner carves by.
    pub edge_devices: Vec<DeviceId>,
    /// Devices that have a route file, in device-id order.
    pub route_devices: Vec<DeviceId>,
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_topology_json(path: &Path, topo: &Topology) -> Result<(), DatasetError> {
    let mut s = String::new();
    s.push_str("{\n  \"format\": \"flash-dataset-v1\",\n  \"devices\": [\n");
    for dev in topo.devices() {
        s.push_str("    {\"name\": \"");
        s.push_str(&json_escape(topo.name(dev)));
        s.push_str("\", \"external\": ");
        s.push_str(if topo.is_external(dev) { "true" } else { "false" });
        for key in ["tier", "pod"] {
            if let Some(v) = topo.label(dev, key) {
                let _ = write!(s, ", \"{key}\": \"{}\"", json_escape(v));
            }
        }
        s.push('}');
        if dev.index() + 1 < topo.device_count() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n  \"links\": [\n");
    let mut first = true;
    for dev in topo.devices() {
        for &next in topo.successors(dev) {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(s, "    [{}, {}]", dev.0, next.0);
        }
    }
    s.push_str("\n  ]\n}\n");
    std::fs::write(path, s)?;
    Ok(())
}

fn write_packet_space_json(path: &Path, layout: &HeaderLayout) -> Result<(), DatasetError> {
    let mut s = String::new();
    s.push_str("{\n  \"fields\": [\n");
    for (i, (_, f)) in layout.fields().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(s, "    {{\"name\": \"{}\", \"bits\": {}}}", json_escape(&f.name), f.width);
    }
    s.push_str("\n  ]\n}\n");
    std::fs::write(path, s)?;
    Ok(())
}

/// Streaming per-device route-file writer.
pub struct RouteWriter {
    out: std::io::BufWriter<std::fs::File>,
    rules: usize,
}

impl RouteWriter {
    /// Appends one rule. Only plain dst-prefix (or all-wildcard) matches
    /// are expressible in the route-file grammar.
    pub fn rule(
        &mut self,
        topo: &Topology,
        actions: &ActionTable,
        rule: &Rule,
    ) -> Result<(), DatasetError> {
        let (value, len) = match *rule.mat.kind(FieldId(0)) {
            MatchKind::Prefix { value, len } => (value, len),
            MatchKind::Any => (0, 0),
            ref other => return Err(perr(format!("match {other:?} not expressible as a prefix"))),
        };
        let action = match actions.get(rule.action) {
            Action::Drop => "drop".to_string(),
            Action::Forward(hops) if hops.len() == 1 => topo.name(hops[0]).to_string(),
            Action::Forward(hops) => format!(
                "ecmp({})",
                hops.iter().map(|h| topo.name(*h)).collect::<Vec<_>>().join(",")
            ),
            Action::Tunnel { .. } => return Err(perr("tunnel actions not expressible")),
        };
        writeln!(self.out, "{value:x}/{len} {} {action}", rule.priority)?;
        self.rules += 1;
        Ok(())
    }

    pub fn finish(mut self) -> Result<usize, DatasetError> {
        self.out.flush()?;
        Ok(self.rules)
    }
}

/// Creates the dataset directory skeleton and writes the header files.
/// Route files are then written one device at a time via [`route_writer`].
pub fn write_dataset_header(
    dir: &Path,
    topo: &Topology,
    layout: &HeaderLayout,
    edge_devices: &[DeviceId],
) -> Result<(), DatasetError> {
    std::fs::create_dir_all(dir.join("data/routes"))?;
    write_topology_json(&dir.join("topology.json"), topo)?;
    write_packet_space_json(&dir.join("packet_space.json"), layout)?;
    let mut edges = String::new();
    for &d in edge_devices {
        edges.push_str(topo.name(d));
        edges.push('\n');
    }
    std::fs::write(dir.join("edge_devices"), edges)?;
    Ok(())
}

/// Opens the route file for one device (truncating any previous one).
pub fn route_writer(dir: &Path, topo: &Topology, dev: DeviceId) -> Result<RouteWriter, DatasetError> {
    let path = dir.join("data/routes").join(topo.name(dev));
    Ok(RouteWriter {
        out: std::io::BufWriter::new(std::fs::File::create(path)?),
        rules: 0,
    })
}

/// Generates a `k`-ary fat-tree StdFIB dataset on disk, streaming: each
/// device's rules are generated, written, and dropped before the next
/// device's begin. Returns the summary (device/rule counts).
pub fn generate_fat_tree_dataset(
    dir: &Path,
    k: u32,
    host_bits: u32,
    prefixes_per_tor: u32,
) -> Result<DatasetSummary, DatasetError> {
    let ft = fat_tree(k, host_bits);
    generate_fat_tree_dataset_from(dir, &ft, prefixes_per_tor)
}

/// As [`generate_fat_tree_dataset`], over an existing [`FatTree`].
pub fn generate_fat_tree_dataset_from(
    dir: &Path,
    ft: &FatTree,
    prefixes_per_tor: u32,
) -> Result<DatasetSummary, DatasetError> {
    let layout = HeaderLayout::new(&[("dst", ft.dst_bits)]);
    let edge: Vec<DeviceId> = ft.all_tors();
    write_dataset_header(dir, &ft.topo, &layout, &edge)?;
    let mut actions = ActionTable::new();
    let (_, rules) =
        apsp_stream::<DatasetError, _>(ft, prefixes_per_tor, &mut actions, |table, dev, rules| {
            let mut w = route_writer(dir, &ft.topo, dev)?;
            for r in &rules {
                w.rule(&ft.topo, table, r)?;
            }
            w.finish()?;
            Ok(())
        })?;
    Ok(DatasetSummary {
        devices: ft.topo.device_count(),
        links: ft.topo.link_count(),
        edge_devices: edge.len(),
        rules,
    })
}

/// Exports an in-memory [`crate::GeneratedFibs`]-shaped data plane (any
/// iterator of per-device rule lists) to a dataset directory.
pub fn export_dataset<'a>(
    dir: &Path,
    topo: &Topology,
    layout: &HeaderLayout,
    actions: &ActionTable,
    edge_devices: &[DeviceId],
    fibs: impl IntoIterator<Item = (DeviceId, &'a [Rule])>,
) -> Result<DatasetSummary, DatasetError> {
    write_dataset_header(dir, topo, layout, edge_devices)?;
    let mut rules = 0usize;
    for (dev, dev_rules) in fibs {
        let mut w = route_writer(dir, topo, dev)?;
        for r in dev_rules {
            w.rule(topo, actions, r)?;
        }
        rules += w.finish()?;
    }
    Ok(DatasetSummary {
        devices: topo.device_count(),
        links: topo.link_count(),
        edge_devices: edge_devices.len(),
        rules,
    })
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

/// Reads the dataset header files (`topology.json`, `packet_space.json`,
/// `edge_devices`) and indexes the route files, without touching any
/// rule bodies.
pub fn load_header(dir: &Path) -> Result<DatasetHeader, DatasetError> {
    let topo_text = std::fs::read_to_string(dir.join("topology.json"))
        .map_err(|e| perr(format!("topology.json: {e}")))?;
    let topo_json = json::parse(&topo_text).map_err(|e| perr(format!("topology.json: {e}")))?;
    let mut topo = Topology::new();
    let devices = topo_json
        .get("devices")
        .and_then(json::Value::as_array)
        .ok_or_else(|| perr("topology.json: missing \"devices\" array"))?;
    for d in devices {
        let name = d
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| perr("topology.json: device without \"name\""))?;
        let external = d.get("external").and_then(json::Value::as_bool).unwrap_or(false);
        let id = if external {
            topo.add_external(name)
        } else {
            topo.add_device(name)
        };
        for key in ["tier", "pod"] {
            if let Some(v) = d.get(key).and_then(json::Value::as_str) {
                topo.set_label(id, key, v);
            }
        }
    }
    let links = topo_json
        .get("links")
        .and_then(json::Value::as_array)
        .ok_or_else(|| perr("topology.json: missing \"links\" array"))?;
    let n = topo.device_count() as u64;
    for l in links {
        let pair = l.as_array().ok_or_else(|| perr("topology.json: link is not a pair"))?;
        let (a, b) = match pair {
            [a, b] => (
                a.as_u64().ok_or_else(|| perr("topology.json: bad link endpoint"))?,
                b.as_u64().ok_or_else(|| perr("topology.json: bad link endpoint"))?,
            ),
            _ => return Err(perr("topology.json: link is not a pair")),
        };
        if a >= n || b >= n {
            return Err(perr(format!("topology.json: link [{a}, {b}] out of range")));
        }
        topo.add_link(DeviceId(a as u32), DeviceId(b as u32));
    }

    let space_text = std::fs::read_to_string(dir.join("packet_space.json"))
        .map_err(|e| perr(format!("packet_space.json: {e}")))?;
    let space = json::parse(&space_text).map_err(|e| perr(format!("packet_space.json: {e}")))?;
    let fields = space
        .get("fields")
        .and_then(json::Value::as_array)
        .ok_or_else(|| perr("packet_space.json: missing \"fields\""))?;
    let mut specs: Vec<(String, u32)> = Vec::new();
    for f in fields {
        let name = f
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| perr("packet_space.json: field without \"name\""))?;
        let bits = f
            .get("bits")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| perr("packet_space.json: field without \"bits\""))?;
        specs.push((name.to_string(), bits as u32));
    }
    if specs.is_empty() {
        return Err(perr("packet_space.json: empty field list"));
    }
    let spec_refs: Vec<(&str, u32)> = specs.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    let layout = HeaderLayout::new(&spec_refs);

    let mut edge_devices = Vec::new();
    let edges_text = std::fs::read_to_string(dir.join("edge_devices"))
        .map_err(|e| perr(format!("edge_devices: {e}")))?;
    for name in edges_text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        edge_devices.push(
            topo.lookup(name)
                .ok_or_else(|| perr(format!("edge_devices: unknown device {name:?}")))?,
        );
    }

    // Deterministic route order: device-id order, skipping devices with
    // no route file (externals typically have none).
    let routes_dir = dir.join("data/routes");
    let route_devices: Vec<DeviceId> = topo
        .devices()
        .filter(|&d| routes_dir.join(topo.name(d)).is_file())
        .collect();

    Ok(DatasetHeader {
        dir: dir.to_path_buf(),
        topo: Arc::new(topo),
        layout,
        edge_devices,
        route_devices,
    })
}

impl DatasetHeader {
    /// Streams every device's route file through `sink`, in device order,
    /// interning actions into `actions` as they are first seen. Returns
    /// the total rule count.
    ///
    /// Two-pass usage: call once with a discarding sink to populate the
    /// action table for verifier construction, then stream the rules with
    /// [`Self::stream_routes_resolved`] (or in parallel with
    /// [`Self::stream_routes_parallel`]) against the completed table.
    ///
    /// The files are parsed on two reader threads, each interning into a
    /// table of its own and shipping, with a device's rules, the actions
    /// that device added to it. The caller's thread renumbers those into
    /// `actions` at their first use in device and line order, so every id
    /// is the one a single sequential reader would assign.
    pub fn stream_routes<F>(
        &self,
        actions: &mut ActionTable,
        mut sink: F,
    ) -> Result<usize, DatasetError>
    where
        F: FnMut(DeviceId, Vec<Rule>) -> Result<(), DatasetError>,
    {
        // Per reader: its local action ids, each with the shared id once
        // a rule has used it.
        let mut ids: Vec<Vec<(Action, Option<ActionId>)>> = vec![Vec::new(); INTERN_READERS];
        let mut total = 0usize;
        self.read_parallel(
            INTERN_READERS,
            |t| (t, ActionTable::new(), 0, ReaderMemo::default()),
            |(t, local, shipped, memo), dev| {
                let mut parser = RouteParser::intern(&self.layout, &self.topo, local);
                parser.memo = std::mem::take(memo);
                let rules = self.read_device(dev, &mut parser);
                *memo = parser.memo;
                let rules = rules?;
                let added: Vec<Action> = (*shipped..local.len())
                    .map(|a| local.get(ActionId(a as u32)).clone())
                    .collect();
                *shipped = local.len();
                Ok((*t, rules, added))
            },
            |dev, (t, mut rules, added)| {
                let ids = &mut ids[t];
                ids.extend(added.into_iter().map(|a| (a, None)));
                for r in &mut rules {
                    let (action, id) = &mut ids[r.action.0 as usize];
                    r.action = *id.get_or_insert_with(|| actions.intern(action.clone()));
                }
                total += rules.len();
                sink(dev, rules)
            },
        )?;
        Ok(total)
    }

    /// As [`Self::stream_routes`], but resolves actions read-only against
    /// a completed table (built by a pass-1 `stream_routes` over the same
    /// files). A route line whose action is absent from the table is a
    /// parse error — it means the files changed between the passes.
    pub fn stream_routes_resolved<F>(
        &self,
        actions: &ActionTable,
        mut sink: F,
    ) -> Result<usize, DatasetError>
    where
        F: FnMut(DeviceId, Vec<Rule>) -> Result<(), DatasetError>,
    {
        let mut parser = RouteParser::resolve(&self.layout, &self.topo, actions);
        let mut total = 0usize;
        for &dev in &self.route_devices {
            let rules = self.read_device(dev, &mut parser)?;
            total += rules.len();
            sink(dev, rules)?;
        }
        Ok(total)
    }

    /// Parallel second pass: `threads` reader threads parse the route
    /// files with read-only action resolution against `actions`, and run
    /// `map` on each device's rules — parse, intern, and any routing work
    /// inside `map` for device d+1 all overlap with the caller consuming
    /// device d. The caller's `sink` still sees devices in strict
    /// device-id order, through a reorder window bounded to ~2 devices
    /// per reader that is also the readers' backpressure. `threads <= 1`
    /// degrades to the sequential resolved pass.
    pub fn stream_routes_parallel<T, M, F>(
        &self,
        actions: &ActionTable,
        threads: usize,
        map: M,
        mut sink: F,
    ) -> Result<usize, DatasetError>
    where
        T: Send,
        M: Fn(DeviceId, Vec<Rule>) -> T + Sync,
        F: FnMut(DeviceId, T) -> Result<(), DatasetError>,
    {
        let mut total = 0usize;
        self.read_parallel(
            threads,
            |_| RouteParser::resolve(&self.layout, &self.topo, actions),
            |parser, dev| {
                let rules = self.read_device(dev, parser)?;
                Ok((rules.len(), map(dev, rules)))
            },
            |dev, (count, item)| {
                total += count;
                sink(dev, item)
            },
        )?;
        Ok(total)
    }

    /// Reads every route file on `threads` reader threads and hands each
    /// device's `read` result to `sink` on the caller's thread, in device
    /// order. Reader `t` owns the device indices `i % threads == t` and
    /// keeps the state `init(t)` across them. Results park in a reorder
    /// window bounded to ~2 devices per reader, which is also the
    /// pipeline's backpressure (readers sleep when the consumer falls
    /// behind). A failed read surfaces at its device's turn, after every
    /// earlier device was sunk, as in a sequential pass; a failed read or
    /// sink stops the readers. `threads <= 1` reads on the caller's
    /// thread.
    fn read_parallel<S, T, I, R, F>(
        &self,
        threads: usize,
        init: I,
        read: R,
        mut sink: F,
    ) -> Result<(), DatasetError>
    where
        T: Send,
        I: Fn(usize) -> S + Sync,
        R: Fn(&mut S, DeviceId) -> Result<T, DatasetError> + Sync,
        F: FnMut(DeviceId, T) -> Result<(), DatasetError>,
    {
        let devices = &self.route_devices;
        let threads = threads.min(devices.len());
        if threads <= 1 {
            let mut state = init(0);
            return devices
                .iter()
                .try_for_each(|&dev| sink(dev, read(&mut state, dev)?));
        }
        let window = threads * 2;
        let shared = ReorderWindow::<T>::new();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (shared, init, read) = (&shared, &init, &read);
                scope.spawn(move || {
                    let _unwinding = Stop { window: shared, unwinding_only: true };
                    let mut state = init(t);
                    for i in (t..devices.len()).step_by(threads) {
                        if !shared.wait_for_slot(i, window) {
                            return; // the consumer stopped
                        }
                        let item = read(&mut state, devices[i]);
                        let failed = item.is_err();
                        shared.publish(i, item);
                        if failed {
                            return;
                        }
                    }
                });
            }
            // Consumer: the caller's thread drains the window in order.
            let _done = Stop { window: &shared, unwinding_only: false };
            devices
                .iter()
                .enumerate()
                .try_for_each(|(i, &dev)| sink(dev, shared.take(i)?))
        })
    }

    /// Reads one device's route file whole and parses it line by line.
    /// The parser's action memo starts empty for every file, so no file
    /// can grow it past its own distinct actions; its match memo carries
    /// over from the reader's earlier files.
    fn read_device(
        &self,
        dev: DeviceId,
        parser: &mut RouteParser<'_>,
    ) -> Result<Vec<Rule>, DatasetError> {
        let name = self.topo.name(dev);
        let bytes = std::fs::read(self.dir.join("data/routes").join(name))?;
        let text = std::str::from_utf8(&bytes).map_err(|e| perr(format!("routes/{name}: {e}")))?;
        parser.memo.actions.clear();
        let mut rules = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let rule = parse_route_line(line, parser)
                .map_err(|m| perr(format!("routes/{name}:{}: {m}", i + 1)))?;
            rules.push(rule);
        }
        Ok(rules)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Bounded reorder window between parallel readers and the in-order
/// consumer. Slot `i` holds device index `i`'s read result — rules or
/// the error that stopped its reader — until the consumer has emitted
/// every earlier device.
struct ReorderWindow<T> {
    state: std::sync::Mutex<ReorderState<T>>,
    cv: std::sync::Condvar,
}

struct ReorderState<T> {
    slots: std::collections::HashMap<usize, Result<T, DatasetError>>,
    next_emit: usize,
    aborted: bool,
}

impl<T> ReorderWindow<T> {
    fn new() -> Self {
        ReorderWindow {
            state: std::sync::Mutex::new(ReorderState {
                slots: std::collections::HashMap::new(),
                next_emit: 0,
                aborted: false,
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Blocks until index `i` is within `window` of the consumer (the
    /// backpressure bound). Returns false once the consumer stopped.
    fn wait_for_slot(&self, i: usize, window: usize) -> bool {
        let mut g = self.state.lock().expect("reorder window poisoned");
        while !g.aborted && i >= g.next_emit + window {
            g = self.cv.wait(g).expect("reorder window poisoned");
        }
        !g.aborted
    }

    fn publish(&self, i: usize, item: Result<T, DatasetError>) {
        let mut g = self.state.lock().expect("reorder window poisoned");
        g.slots.insert(i, item);
        self.cv.notify_all();
    }

    /// Wakes every reader and the consumer for good.
    fn abort(&self) {
        let mut g = self.state.lock().expect("reorder window poisoned");
        g.aborted = true;
        self.cv.notify_all();
    }

    fn take(&self, i: usize) -> Result<T, DatasetError> {
        let mut g = self.state.lock().expect("reorder window poisoned");
        loop {
            if let Some(v) = g.slots.remove(&i) {
                g.next_emit = i + 1;
                self.cv.notify_all();
                return v;
            }
            if g.aborted {
                return Err(perr("a route reader stopped"));
            }
            g = self.cv.wait(g).expect("reorder window poisoned");
        }
    }
}

/// Stops a [`ReorderWindow`] when dropped: the consumer's on any exit
/// (the readers have nothing left to do), a reader's only while it
/// unwinds (the consumer would otherwise wait for its slot forever).
struct Stop<'a, T> {
    window: &'a ReorderWindow<T>,
    unwinding_only: bool,
}

impl<T> Drop for Stop<'_, T> {
    fn drop(&mut self) {
        if !self.unwinding_only || std::thread::panicking() {
            self.window.abort();
        }
    }
}

/// Per-reader parsing state: layout/topology borrows, the action sink
/// (interning or read-only resolution), and the reader's memos.
struct RouteParser<'a> {
    width: u32,
    layout: &'a HeaderLayout,
    topo: &'a Topology,
    actions: ActionSink<'a>,
    memo: ReaderMemo,
}

/// What one reader has resolved: a repeated action text or prefix costs
/// one probe here instead of hop lookups and a shared interner.
#[derive(Default)]
struct ReaderMemo {
    /// Action text → the sink's id (local in pass 1); cleared per file.
    actions: std::collections::HashMap<Box<str>, ActionId>,
    /// `(value, len)` → dst-prefix match; kept for the reader's life, so
    /// the global `MatchTable` sees each prefix once per reader.
    matches: std::collections::HashMap<(u64, u32), flash_netmodel::Match>,
}

impl<'a> RouteParser<'a> {
    fn new(layout: &'a HeaderLayout, topo: &'a Topology, actions: ActionSink<'a>) -> Self {
        let width = layout.field(FieldId(0)).width;
        RouteParser { width, layout, topo, actions, memo: ReaderMemo::default() }
    }

    fn intern(layout: &'a HeaderLayout, topo: &'a Topology, actions: &'a mut ActionTable) -> Self {
        RouteParser::new(layout, topo, ActionSink::intern(actions))
    }

    fn resolve(layout: &'a HeaderLayout, topo: &'a Topology, actions: &'a ActionTable) -> Self {
        RouteParser::new(layout, topo, ActionSink::resolve(actions))
    }
}

enum ActionMode<'a> {
    Intern(&'a mut ActionTable),
    Resolve(&'a ActionTable),
}

/// Action resolution behind the reader's memo. Hop sets are built in a
/// reused scratch `Forward` action, normalized in place, and probed with
/// the read-only [`ActionTable::lookup`]; the interning mode only clones
/// the scratch into the table on a genuine miss, and the resolve mode
/// never mutates the table at all — which is what lets parallel readers
/// share one completed table.
struct ActionSink<'a> {
    mode: ActionMode<'a>,
    scratch: Action,
}

impl<'a> ActionSink<'a> {
    fn intern(t: &'a mut ActionTable) -> Self {
        ActionSink { mode: ActionMode::Intern(t), scratch: Action::Forward(Vec::new()) }
    }

    fn resolve(t: &'a ActionTable) -> Self {
        ActionSink { mode: ActionMode::Resolve(t), scratch: Action::Forward(Vec::new()) }
    }

    /// Resolves a next-hop name or an `ecmp(a,b,…)` set.
    fn forward(&mut self, text: &str, topo: &Topology) -> Result<ActionId, String> {
        let Action::Forward(hops) = &mut self.scratch else { unreachable!() };
        hops.clear();
        if let Some(inner) = text.strip_prefix("ecmp(").and_then(|r| r.strip_suffix(')')) {
            for h in inner.split(',') {
                let h = h.trim();
                hops.push(topo.lookup(h).ok_or_else(|| format!("unknown next hop {h:?}"))?);
            }
            if hops.is_empty() {
                return Err("empty ecmp() set".to_string());
            }
        } else {
            hops.push(topo.lookup(text).ok_or_else(|| format!("unknown next hop {text:?}"))?);
        }
        hops.sort_unstable();
        hops.dedup();
        let table: &ActionTable = match &self.mode {
            ActionMode::Intern(t) => t,
            ActionMode::Resolve(t) => t,
        };
        if let Some(id) = table.lookup(&self.scratch) {
            return Ok(id);
        }
        match &mut self.mode {
            ActionMode::Intern(t) => Ok(t.intern(self.scratch.clone())),
            ActionMode::Resolve(_) => {
                Err("action not in the pass-1 table (files changed between passes?)".to_string())
            }
        }
    }
}

/// Parses `"<hex>/<len> <priority> <action>"`. The action and the match
/// come from the reader's memos when this reader has seen their text
/// before; every check runs on every line either way.
/// Parses a route file's prefix spelling, `<hex>/<len>` over a field
/// `width` bits wide (e.g. `40/7` at width 13), into `(value, len)`.
/// Rejects a value with bits above the width, a length above the width
/// and a value with bits below the length, so each prefix has exactly
/// one spelling.
#[inline]
pub fn parse_route_prefix(prefix: &str, width: u32) -> Result<(u64, u32), String> {
    let (value_s, len_s) = prefix.split_once('/').ok_or("expected <hex>/<len>")?;
    let value = u64::from_str_radix(value_s, 16).map_err(|_| format!("bad hex value {value_s:?}"))?;
    if width < 64 && value >> width != 0 {
        return Err(format!("hex value {value_s:?} has bits above field width {width}"));
    }
    let len: u32 = len_s.parse().map_err(|_| format!("bad prefix length {len_s:?}"))?;
    if len > width {
        return Err(format!("prefix length {len} > field width {width}"));
    }
    if len < width && value & (u64::MAX >> (64 - (width - len))) != 0 {
        return Err(format!("hex value {value_s:?} has bits below prefix length {len}"));
    }
    Ok((value, len))
}

fn parse_route_line(line: &str, p: &mut RouteParser<'_>) -> Result<Rule, String> {
    let mut parts = line.split_whitespace();
    let prefix = parts.next().ok_or("expected a prefix")?;
    let (value, len) = parse_route_prefix(prefix, p.width)?;
    let priority: i64 = parts
        .next()
        .ok_or("expected a priority")?
        .parse()
        .map_err(|_| "bad priority".to_string())?;
    let action_s = parts.next().ok_or("expected an action")?;
    let action = if action_s == "drop" {
        flash_netmodel::ACTION_DROP
    } else if let Some(&id) = p.memo.actions.get(action_s) {
        id
    } else {
        let id = p.actions.forward(action_s, p.topo)?;
        p.memo.actions.insert(action_s.into(), id);
        id
    };
    let layout = p.layout;
    let mat = *p
        .memo
        .matches
        .entry((value, len))
        .or_insert_with(|| flash_netmodel::Match::dst_prefix(layout, value, len));
    Ok(Rule::new(mat, priority, action))
}

// ---------------------------------------------------------------------
// Minimal JSON reader
// ---------------------------------------------------------------------

/// A tiny recursive-descent JSON reader covering exactly what the
/// dataset header files use: objects, arrays, strings (with basic
/// escapes), non-negative integers, booleans, and null.
pub(crate) mod json {
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut pairs = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    expect(b, pos, b':')?;
                    pairs.push((key, parse_value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *pos;
                *pos += 1;
                while *pos < b.len()
                    && (b[*pos].is_ascii_digit()
                        || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            _ => Err(format!("unexpected character at byte {}", *pos)),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = b.get(*pos).copied().ok_or("truncated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            *pos += 4;
                            out.push(char::from_u32(cp).ok_or("bad unicode scalar")?);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: find the full char from the source.
                    let start = *pos - 1;
                    let s = std::str::from_utf8(&b[start..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let ch = s.chars().next().ok_or("truncated string")?;
                    out.push(ch);
                    *pos = start + ch.len_utf8();
                }
            }
        }
        Err("unterminated string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fibgen::{generate, FibDiscipline};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "flash-dataset-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn json_parser_handles_dataset_shapes() {
        let v = json::parse(
            r#"{"format": "flash-dataset-v1", "devices": [{"name": "a", "external": false}], "links": [[0, 1]], "n": 12}"#,
        )
        .unwrap();
        assert_eq!(v.get("format").and_then(json::Value::as_str), Some("flash-dataset-v1"));
        let devs = v.get("devices").and_then(json::Value::as_array).unwrap();
        assert_eq!(devs[0].get("name").and_then(json::Value::as_str), Some("a"));
        assert_eq!(devs[0].get("external").and_then(json::Value::as_bool), Some(false));
        assert_eq!(v.get("n").and_then(json::Value::as_u64), Some(12));
        assert!(json::parse("{\"a\": }").is_err());
        assert!(json::parse("[1, 2").is_err());
        assert!(json::parse("{} extra").is_err());
        assert_eq!(
            json::parse(r#""a\"bA""#).unwrap(),
            json::Value::Str("a\"bA".to_string())
        );
    }

    #[test]
    fn generate_load_roundtrip_preserves_everything() {
        let dir = tmpdir("roundtrip");
        let summary = generate_fat_tree_dataset(&dir, 4, 8, 2).unwrap();
        assert_eq!(summary.devices, 20);
        assert_eq!(summary.edge_devices, 8);
        // apsp with 2 sub-prefixes: 2 × 8 prefixes × 19 other devices.
        assert_eq!(summary.rules, 2 * 8 * 19);

        let header = load_header(&dir).unwrap();
        assert_eq!(header.topo.device_count(), 20);
        assert_eq!(header.edge_devices.len(), 8);
        assert_eq!(header.route_devices.len(), 20);
        assert_eq!(header.layout.field(FieldId(0)).name, "dst");

        // Streamed rules must match an in-memory generation exactly
        // (same fat tree, same discipline parameters).
        let ft = fat_tree(4, 8);
        let g = generate(&ft, FibDiscipline::Apsp, 2);
        let mut actions = ActionTable::new();
        let mut loaded: Vec<(DeviceId, Vec<Rule>)> = Vec::new();
        let total = header
            .stream_routes(&mut actions, |d, r| {
                loaded.push((d, r));
                Ok(())
            })
            .unwrap();
        assert_eq!(total, summary.rules);
        for (got, want) in loaded.iter().zip(&g.fibs) {
            // Device names were written in topology order, so ids agree.
            assert_eq!(got.0, want.device);
            assert_eq!(got.1.len(), want.rules.len());
            for (a, b) in got.1.iter().zip(&want.rules) {
                assert_eq!(a.mat, b.mat);
                assert_eq!(a.priority, b.priority);
                assert_eq!(actions.next_hops(a.action), g.actions.next_hops(b.action));
            }
        }
        // Topology structure survives: same link count, labels intact.
        assert_eq!(header.topo.link_count(), ft.topo.link_count());
        let t = header.topo.lookup("tor-2-1").unwrap();
        assert_eq!(header.topo.label(t, "tier"), Some("tor"));
        assert_eq!(header.topo.label(t, "pod"), Some("2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_pass_action_ids_agree() {
        let dir = tmpdir("twopass");
        generate_fat_tree_dataset(&dir, 4, 8, 1).unwrap();
        let header = load_header(&dir).unwrap();
        let mut first = ActionTable::new();
        header.stream_routes(&mut first, |_, _| Ok(())).unwrap();
        let mut second = ActionTable::new();
        let mut max_id = 0u32;
        header
            .stream_routes(&mut second, |_, rules| {
                for r in &rules {
                    max_id = max_id.max(r.action.0);
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(first.len(), second.len());
        assert!((max_id as usize) < first.len());
        for i in 0..first.len() as u32 {
            assert_eq!(
                first.get(flash_netmodel::ActionId(i)),
                second.get(flash_netmodel::ActionId(i))
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interning_pass_numbers_actions_as_one_sequential_reader() {
        let dir = tmpdir("internpass");
        generate_fat_tree_dataset(&dir, 4, 8, 2).unwrap();
        let mut header = load_header(&dir).unwrap();
        // Reversed, so that each reader meets actions in another order
        // than the device order does.
        header.route_devices.reverse();
        let mut reference = ActionTable::new();
        let seq: Vec<(DeviceId, Vec<Rule>)> = {
            let mut parser = RouteParser::intern(&header.layout, &header.topo, &mut reference);
            let devices = header.route_devices.clone();
            devices
                .into_iter()
                .map(|d| (d, header.read_device(d, &mut parser).unwrap()))
                .collect()
        };
        let mut actions = ActionTable::new();
        let mut par: Vec<(DeviceId, Vec<Rule>)> = Vec::new();
        let total = header
            .stream_routes(&mut actions, |d, r| {
                par.push((d, r));
                Ok(())
            })
            .unwrap();
        assert_eq!(par, seq, "same devices, same order, same rules and action ids");
        assert_eq!(total, seq.iter().map(|(_, r)| r.len()).sum::<usize>());
        assert!(reference.len() > 3, "the fabric has ECMP actions to renumber");
        assert_eq!(actions.len(), reference.len());
        for i in 0..actions.len() as u32 {
            assert_eq!(actions.get(ActionId(i)), reference.get(ActionId(i)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interning_pass_stops_at_the_bad_file_in_device_order() {
        let dir = tmpdir("internerr");
        generate_fat_tree_dataset(&dir, 4, 8, 1).unwrap();
        let header = load_header(&dir).unwrap();
        let bad = header.route_devices[5];
        let name = header.topo.name(bad).to_string();
        std::fs::write(dir.join("data/routes").join(&name), "zz/8 1 drop\n").unwrap();
        let mut seen = Vec::new();
        let err = header
            .stream_routes(&mut ActionTable::new(), |d, _| {
                seen.push(d);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(seen, header.route_devices[..5], "every device before the bad one, no later one");
        assert!(err.to_string().contains(&format!("routes/{name}:1")), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_stream_matches_sequential_in_order() {
        let dir = tmpdir("parstream");
        generate_fat_tree_dataset(&dir, 4, 8, 2).unwrap();
        let header = load_header(&dir).unwrap();
        let mut actions = ActionTable::new();
        header.stream_routes(&mut actions, |_, _| Ok(())).unwrap();

        let mut seq: Vec<(DeviceId, Vec<Rule>)> = Vec::new();
        let seq_total = header
            .stream_routes_resolved(&actions, |d, r| {
                seq.push((d, r));
                Ok(())
            })
            .unwrap();
        for threads in [1usize, 2, 4, 7] {
            let mut par: Vec<(DeviceId, Vec<Rule>)> = Vec::new();
            let total = header
                .stream_routes_parallel(&actions, threads, |_, rules| rules, |d, r| {
                    par.push((d, r));
                    Ok(())
                })
                .unwrap();
            assert_eq!(total, seq_total, "{threads} threads");
            assert_eq!(par, seq, "{threads} threads: same devices, same order, same rules");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_stream_propagates_sink_and_parse_errors() {
        let dir = tmpdir("parerr");
        generate_fat_tree_dataset(&dir, 4, 8, 1).unwrap();
        let header = load_header(&dir).unwrap();
        let mut actions = ActionTable::new();
        header.stream_routes(&mut actions, |_, _| Ok(())).unwrap();

        // Sink error after a few devices aborts the readers cleanly.
        let mut n = 0;
        let err = header
            .stream_routes_parallel(&actions, 3, |_, r| r, |_, _| {
                n += 1;
                if n == 3 { Err(perr("sink says stop")) } else { Ok(()) }
            })
            .unwrap_err();
        assert!(err.to_string().contains("sink says stop"), "{err}");

        // A resolve miss (action absent from the pass-1 table) is a parse
        // error naming the file.
        let empty = ActionTable::new();
        let err = header
            .stream_routes_parallel(&empty, 2, |_, r| r, |_, _| Ok(()))
            .unwrap_err();
        assert!(err.to_string().contains("pass-1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_dataset_matches_generator_output() {
        let dir = tmpdir("export");
        let ft = fat_tree(4, 8);
        let g = generate(&ft, FibDiscipline::Apsp, 1);
        let edge = ft.all_tors();
        let summary = export_dataset(
            &dir,
            &ft.topo,
            &g.layout,
            &g.actions,
            &edge,
            g.fibs.iter().map(|f| (f.device, f.rules.as_slice())),
        )
        .unwrap();
        assert_eq!(summary.rules, g.total_rules());
        let header = load_header(&dir).unwrap();
        let mut actions = ActionTable::new();
        let total = header.stream_routes(&mut actions, |_, _| Ok(())).unwrap();
        assert_eq!(total, g.total_rules());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_errors_are_descriptive() {
        let dir = tmpdir("errs");
        assert!(matches!(load_header(&dir), Err(DatasetError::Parse(_))));
        std::fs::write(dir.join("topology.json"), "{\"devices\": [").unwrap();
        let e = load_header(&dir).unwrap_err();
        assert!(e.to_string().contains("topology.json"), "{e}");

        // A value with bits above the field width, or below the prefix
        // length, is rejected, not masked into the same predicate as its
        // canonical spelling.
        generate_fat_tree_dataset(&dir, 4, 8, 1).unwrap();
        let header = load_header(&dir).unwrap();
        let width = header.layout.field(FieldId(0)).width;
        let name = header.topo.name(header.route_devices[0]).to_string();
        let top = (1u64 << width) - 1;
        let high = 1u64 << (width - 1);
        for (bad, msg) in [
            (format!("{:x}/{width}", top | 1 << width), "bits above field width"),
            (format!("{:x}/1", high | 1), "bits below prefix length 1"),
        ] {
            let lines = format!("{top:x}/{width} 1 drop\n{high:x}/1 1 drop\n{bad} 1 drop\n");
            std::fs::write(dir.join("data/routes").join(&name), lines).unwrap();
            let e = header.stream_routes(&mut ActionTable::new(), |_, _| Ok(())).unwrap_err();
            assert!(e.to_string().contains(&format!("routes/{name}:3")), "{e}");
            assert!(e.to_string().contains(msg), "{e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn route_prefixes_have_one_spelling() {
        assert_eq!(parse_route_prefix("40/7", 13), Ok((0x40, 7)));
        for (bad, msg) in [
            ("10.0.0.0/99", "bad hex value"),
            ("41/7", "bits below prefix length 7"),
            ("0/14", "prefix length 14 > field width 13"),
            ("2000/3", "bits above field width 13"),
        ] {
            let e = parse_route_prefix(bad, 13).unwrap_err();
            assert!(e.contains(msg), "{bad}: {e}");
        }
    }

    /// Four devices with route files that spell one action several ways,
    /// in a different order per file, read at one and two readers.
    #[test]
    fn reader_memos_agree_with_sequential_interning() {
        let dir = tmpdir("memos");
        let mut topo = Topology::new();
        let devs: Vec<DeviceId> =
            ["a", "b", "c", "d"].into_iter().map(|n| topo.add_device(n)).collect();
        let (b, c) = (devs[1], devs[2]);
        let layout = HeaderLayout::new(&[("dst", 16)]);
        write_dataset_header(&dir, &topo, &layout, &devs).unwrap();
        let spellings = [
            ("b", Action::fwd(b)),
            ("ecmp(b)", Action::ecmp(vec![b])),
            ("ecmp(b,b)", Action::ecmp(vec![b, b])),
            ("ecmp(b,c)", Action::ecmp(vec![b, c])),
            ("ecmp(c,b)", Action::ecmp(vec![c, b])),
        ];
        // One value at two lengths, so a memo keyed on less than both
        // would hand out the wrong match.
        let prefix = |i: usize| (0xa000, 8 + 4 * (i as u32 % 2));
        // The sequential reference: every line interned in device order.
        // Device 1 starts with the {b, c} set, so its reader numbers it
        // locally before it numbers b.
        let mut reference = ActionTable::new();
        let mut want: Vec<(DeviceId, Vec<Rule>)> = Vec::new();
        for (i, &dev) in devs.iter().enumerate() {
            let mut order: Vec<usize> = (0..spellings.len()).collect();
            order.rotate_left(3 * i % spellings.len());
            let mut body = String::new();
            let mut rules = Vec::new();
            for j in order {
                let ((value, len), (text, action)) = (prefix(j), &spellings[j]);
                let _ = writeln!(body, "{value:x}/{len} {j} {text}");
                let mat = flash_netmodel::Match::dst_prefix(&layout, value, len);
                rules.push(Rule::new(mat, j as i64, reference.intern(action.clone())));
            }
            std::fs::write(dir.join("data/routes").join(topo.name(dev)), body).unwrap();
            want.push((dev, rules));
        }
        assert_eq!(reference.len(), 3, "drop, b and the {{b, c}} set");
        let header = load_header(&dir).unwrap();

        // Pass 1 on one reader, then on the loader's two, which read
        // devices 0 and 1 (and so the same prefixes) on different threads.
        let mut one = ActionTable::new();
        let mut parser = RouteParser::intern(&header.layout, &header.topo, &mut one);
        let seq: Vec<(DeviceId, Vec<Rule>)> =
            devs.iter().map(|&d| (d, header.read_device(d, &mut parser).unwrap())).collect();
        assert_eq!(seq, want);
        let mut actions = ActionTable::new();
        let mut two = Vec::new();
        header
            .stream_routes(&mut actions, |d, r| {
                two.push((d, r));
                Ok(())
            })
            .unwrap();
        assert_eq!(two, want);
        for i in 0..reference.len() as u32 {
            assert_eq!(actions.get(ActionId(i)), reference.get(ActionId(i)));
        }

        // Pass 2 on one and two readers resolves to the same ids.
        for threads in [1, 2] {
            let mut par = Vec::new();
            header
                .stream_routes_parallel(&actions, threads, |_, r| r, |d, r| {
                    par.push((d, r));
                    Ok(())
                })
                .unwrap();
            assert_eq!(par, want, "{threads} readers");
        }

        // A bad line after memo hits on the same action and prefix still
        // fails, with its own line number, in every pass.
        let last = topo.name(devs[3]);
        for (bad, msg) in [("a000/8 3 nosuch", "unknown next hop"), ("a000/8 x b", "bad priority")] {
            let body = format!("a000/8 1 b\n# hits\na000/8 2 b\n{bad}\n");
            std::fs::write(dir.join("data/routes").join(last), body).unwrap();
            let mut errs = vec![header.stream_routes(&mut ActionTable::new(), |_, _| Ok(()))];
            for threads in [1, 2] {
                errs.push(header.stream_routes_parallel(&actions, threads, |_, r| r, |_, _| Ok(())));
            }
            for e in errs.into_iter().map(Result::unwrap_err) {
                assert!(e.to_string().contains(&format!("routes/{last}:4: {msg}")), "{e}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
