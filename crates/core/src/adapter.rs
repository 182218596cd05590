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
//! [`HeaderLayout::dst_only`] layout, with no bits set below the prefix
//! length.
//!
//! The format is read in one sequential pass, with the whole file in
//! memory: it is meant for hand-written, quickstart-sized networks that
//! carry `require` lines. Large data planes use the on-disk dataset
//! layout of `flash_workloads::dataset`, whose readers stream route
//! files in parallel.

use crate::error::FlashError;
use crate::verifier::Property;
use flash_netmodel::{ActionTable, DeviceId, HeaderLayout, Match, Rule, Topology};
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

fn err(line: usize, message: impl Into<String>) -> FlashError {
    FlashError::parse(line, message)
}

/// Parses `a.b.c.d/len` into `(value, len)` over 32 bits. The address
/// may have no bits set below `len`, so each prefix has one spelling.
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
    if value & ((1u64 << (32 - len)) - 1) != 0 {
        return Err(err(line, format!("{s:?} has bits below its length")));
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

/// The parse state of one pass over the file: topology and actions as
/// declared so far, `fib` blocks collected in file order, and the
/// `require` lines, which are parsed once the topology is complete.
struct Parser {
    layout: HeaderLayout,
    topo: Topology,
    actions: ActionTable,
    fibs: Vec<(DeviceId, Vec<Rule>)>,
    /// Whether rule lines extend the last `fib` block.
    in_fib: bool,
    requires: Vec<(usize, String)>,
}

impl Parser {
    fn line(&mut self, lineno: usize, raw: &str) -> Result<(), FlashError> {
        let line = raw.split('#').next().unwrap_or("").trim();
        let mut parts = line.split_whitespace();
        let Some(keyword) = parts.next() else {
            return Ok(());
        };
        // Any directive terminates the open fib block; rules start with a digit.
        self.in_fib &= keyword.starts_with(|c: char| c.is_ascii_digit());
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
                let name = parts
                    .next()
                    .ok_or_else(|| err(lineno, "expected a device name"))?;
                let dev = self
                    .topo
                    .lookup(name)
                    .ok_or_else(|| err(lineno, format!("unknown device {name:?}")))?;
                self.fibs.push((dev, Vec::new()));
                self.in_fib = true;
            }
            "require" => {
                self.requires.push((lineno, line.to_string()));
            }
            _ if self.in_fib => {
                // Inside a fib block: "prefix priority action".
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
                let mat = Match::dst_prefix(&self.layout, value, len);
                if let Some((_, rules)) = self.fibs.last_mut() {
                    rules.push(Rule::new(mat, priority, action));
                }
            }
            _ => return Err(err(lineno, format!("unexpected directive {keyword:?}"))),
        }
        Ok(())
    }
}

/// Parses a network file in one sequential pass.
pub fn parse_network(input: &str) -> Result<NetworkFile, FlashError> {
    let mut parser = Parser {
        layout: HeaderLayout::dst_only(),
        topo: Topology::new(),
        actions: ActionTable::new(),
        fibs: Vec::new(),
        in_fib: false,
        requires: Vec::new(),
    };
    for (i, raw) in input.lines().enumerate() {
        parser.line(i + 1, raw)?;
    }
    // Requirements are parsed after the topology so names resolve.
    let mut properties = vec![Property::LoopFreedom];
    for (lineno, line) in &parser.requires {
        properties.push(parse_require(line, *lineno, &parser.topo, &parser.layout)?);
    }
    Ok(NetworkFile {
        topo: Arc::new(parser.topo),
        actions: Arc::new(parser.actions),
        layout: parser.layout,
        fibs: parser.fibs,
        properties,
    })
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
        // Bits below the length would intern a second match for 10.0.0.0/8.
        let e = parse_prefix("10.0.0.1/8", 7).unwrap_err();
        assert_eq!(e.parse_line(), Some(7));
        assert!(e.to_string().contains("has bits below its length"), "{e}");
        assert!(parse_prefix("10.0.0.1/32", 1).is_ok());
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
        let bad = "node a\nfib a\n  10.0.0.0/8 1 drop\n  10.0.1.1/24 1 drop\n";
        let e = parse_network(bad).unwrap_err();
        assert_eq!(e.parse_line(), Some(4));
        let bad = "node a\nrequire r 10.1.0.0/8 from a path \"a\"\n";
        let e = parse_network(bad).unwrap_err();
        assert_eq!(e.parse_line(), Some(2));
    }

    /// Seeded mutants of the two sample networks (a byte deleted, a
    /// directive token inserted, a byte replaced, a span cut): each must
    /// fail with a `Parse` error on one of its own lines, or load through
    /// `ingest_bulk` + `seal_bulk` without a panic.
    #[test]
    fn mutated_networks_fail_on_a_line_or_load() {
        use crate::verifier::{SubspaceVerifier, SubspaceVerifierConfig};
        const FIGURE2: &str = include_str!("../../../examples/figure2.net");
        const TOKENS: [&str; 12] = [
            "\n", " ", "#", "/", ".", "0", "fib s1\n", "node ", "link s1 ", "external ",
            "require ", "ecmp(",
        ];
        const BYTES: &[u8] = b"0123456789./ ()#,\nabsgw*|\"";
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut below = |n: usize| -> usize {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let (mut parsed, mut loaded) = (0, 0);
        for round in 0..2000 {
            let mut bytes = [SAMPLE, FIGURE2][round % 2].as_bytes().to_vec();
            for _ in 0..=below(3) {
                let at = below(bytes.len());
                match below(4) {
                    0 => {
                        bytes.remove(at);
                    }
                    1 => {
                        let token = TOKENS[below(TOKENS.len())].bytes();
                        bytes.splice(at..at, token);
                    }
                    2 => bytes[at] = BYTES[below(BYTES.len())],
                    _ => {
                        let end = (at + 1 + below(24)).min(bytes.len());
                        bytes.drain(at..end);
                    }
                }
            }
            let text = String::from_utf8(bytes).expect("ASCII in, ASCII out");
            let net = match parse_network(&text) {
                Ok(net) => net,
                Err(FlashError::Parse { line, .. }) => {
                    let lines = text.lines().count();
                    assert!((1..=lines).contains(&line), "line {line} of {lines}: {text:?}");
                    parsed += 1;
                    continue;
                }
                Err(e) => panic!("{e} is not a parse error: {text:?}"),
            };
            let mut v = SubspaceVerifier::new(SubspaceVerifierConfig {
                topo: net.topo.clone(),
                actions: net.actions.clone(),
                layout: net.layout.clone(),
                subspace: flash_imt::SubspaceSpec::whole(),
                bst: usize::MAX,
                properties: net.properties.clone(),
            });
            let mut synced = Vec::new();
            for (dev, rules) in &net.fibs {
                let updates = rules.iter().copied().map(flash_netmodel::RuleUpdate::insert);
                v.ingest_bulk(*dev, updates.collect());
                synced.push(*dev);
            }
            synced.sort_unstable();
            synced.dedup();
            v.seal_bulk(&synced);
            loaded += 1;
        }
        // Both outcomes must be exercised for the test to mean anything.
        assert!(parsed > 200 && loaded > 200, "{parsed} rejected, {loaded} loaded");
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
