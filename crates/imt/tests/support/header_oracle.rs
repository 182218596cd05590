//! The header-enumeration oracle shared by the model-manager churn
//! tests (`crates/imt/tests/index_equivalence.rs` and the root
//! `tests/intern_equivalence.rs` include this file as a module).

use flash_imt::{ModelManager, PatId};
use flash_netmodel::{ActionId, DeviceId, FieldId, MatchKind};
use std::collections::HashMap;

/// Walks every header of the `width`-bit `dst` layout and checks the
/// manager's model against the FIBs without any BDD: per device, the
/// header's action is that of the first rule whose prefix covers it.
/// The model's class for the header must carry exactly that vector, and
/// the classes must partition the headers the same way the vectors do.
pub fn check_against_headers(m: &mut ModelManager, width: u32, at: &str) {
    let mut devices: Vec<DeviceId> = m.devices().collect();
    devices.sort_unstable();
    // Per device, (prefix value, prefix length, action) in priority order.
    let tables: Vec<Vec<(u64, u32, ActionId)>> = devices
        .iter()
        .map(|&d| {
            m.fib(d)
                .rules()
                .iter()
                .map(|r| match *r.mat.kind(FieldId(0)) {
                    MatchKind::Any => (0, 0, r.action),
                    MatchKind::Prefix { value, len } => (value, len, r.action),
                    ref k => panic!("unexpected match kind {k:?}"),
                })
                .collect()
        })
        .collect();
    let mut class_of: HashMap<Vec<ActionId>, PatId> = HashMap::new();
    for h in 0..1u64 << width {
        let want: Vec<ActionId> = tables
            .iter()
            .map(|t| {
                let first = t.iter().find(|&&(v, len, _)| (h ^ v) >> (width - len) == 0);
                first.expect("the default rule covers every header").2
            })
            .collect();
        let bits: Vec<bool> = (0..width)
            .map(|i| (h >> (width - 1 - i)) & 1 == 1)
            .collect();
        let entry = m
            .model()
            .classify(m.engine(), &bits)
            .unwrap_or_else(|| panic!("{at}: header {h:#x} is in no class"));
        let got: Vec<ActionId> = devices
            .iter()
            .map(|&d| m.pat().get(entry.vector, d))
            .collect();
        assert_eq!(got, want, "{at}: header {h:#x}");
        let class = *class_of.entry(want).or_insert(entry.vector);
        assert_eq!(
            class, entry.vector,
            "{at}: one vector split over two classes"
        );
    }
    assert_eq!(class_of.len(), m.model().len(), "{at}: class count");
}
