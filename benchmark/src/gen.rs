//! Seeded input generators. The same seed gives the same inputs; the
//! system under test receives only what is generated here.

use crate::sut::{
    self, ActionId, Base, DeviceId, Plane, Query, Rule, RuleUpdate, TorPrefixes, Update,
};

/// SplitMix64: small, seedable, and owned by the benchmark so that a
/// change to the repository's own generators cannot move the inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`: independent generators for one run.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Order-sensitive hash of everything a generator emitted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    pub fn add_block(&mut self, block: &[Update]) {
        for (dev, u) in block {
            self.add(dev.0 as u64);
            self.add(matches!(u.op, sut::RuleOp::Insert) as u64);
            self.add(sut::rule_hash(&u.rule));
        }
    }
}

/// Rule modifications spread over distinct `(device, rule)` slots of a
/// set of tables: delete the rule, re-insert its match and priority with
/// another action. Table sizes never change, and no update nets out.
pub struct Modifier {
    tables: Vec<(DeviceId, Vec<Rule>)>,
    /// The actions each table may switch a rule to.
    choices: Vec<Vec<ActionId>>,
    /// Tables with a rule to modify and an action to switch to.
    usable: Vec<usize>,
    rng: Rng,
}

impl Modifier {
    pub fn new(
        tables: Vec<(DeviceId, Vec<Rule>)>,
        choices: Vec<Vec<ActionId>>,
        rng: Rng,
    ) -> Modifier {
        let usable: Vec<usize> = (0..tables.len())
            .filter(|&t| !tables[t].1.is_empty() && choices[t].len() >= 2)
            .collect();
        assert!(
            !usable.is_empty(),
            "no table has a rule and two actions to choose from"
        );
        Modifier {
            tables,
            choices,
            usable,
            rng,
        }
    }

    /// Over every device of `base`, choosing among the actions its own
    /// table already uses.
    pub fn over_base(base: &Base, rng: Rng) -> Modifier {
        let choices = base
            .fibs
            .iter()
            .map(|(_, rules)| {
                let mut a: Vec<ActionId> = rules.iter().map(|r| r.action).collect();
                a.sort_unstable();
                a.dedup();
                a
            })
            .collect();
        Modifier::new(base.fibs.clone(), choices, rng)
    }

    /// One block of `n` modifications (2 × `n` updates).
    pub fn block(&mut self, n: usize) -> Vec<Update> {
        let mut slots: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut block = Vec::with_capacity(2 * n);
        while slots.len() < n {
            let t = self.usable[self.rng.below(self.usable.len())];
            let i = self.rng.below(self.tables[t].1.len());
            if slots.contains(&(t, i)) {
                continue;
            }
            slots.push((t, i));
            let others = &self.choices[t];
            let at = self.rng.below(others.len());
            let (dev, table) = &mut self.tables[t];
            let old = table[i];
            let action = if others[at] == old.action {
                others[(at + 1) % others.len()]
            } else {
                others[at]
            };
            let new = Rule::new(old.mat, old.priority, action);
            table[i] = new;
            block.push((*dev, RuleUpdate::delete(old)));
            block.push((*dev, RuleUpdate::insert(new)));
        }
        block
    }

    /// `count` blocks of `n` modifications and their fingerprint.
    pub fn blocks(&mut self, count: usize, n: usize) -> (Vec<Vec<Update>>, Fingerprint) {
        let blocks: Vec<_> = (0..count).map(|_| self.block(n)).collect();
        let mut fp = Fingerprint::new();
        blocks.iter().for_each(|b| fp.add_block(b));
        (blocks, fp)
    }

    /// Every table as the blocks handed out so far leave it.
    pub fn tables(&self) -> &[(DeviceId, Vec<Rule>)] {
        &self.tables
    }
}

/// Fails unless every update of `block` survives MR²'s netting: a block
/// that nets out would measure nothing.
pub fn check_survives(block: &[Update]) -> Result<(), String> {
    let mut devices: Vec<DeviceId> = block.iter().map(|(d, _)| *d).collect();
    devices.sort_unstable();
    devices.dedup();
    let mut surviving = 0;
    for dev in devices {
        let own: Vec<RuleUpdate> = block
            .iter()
            .filter(|(d, _)| *d == dev)
            .map(|(_, u)| *u)
            .collect();
        surviving += sut::surviving_updates(&own);
    }
    if surviving == block.len() {
        Ok(())
    } else {
        Err(format!(
            "only {surviving} of {} updates survive netting",
            block.len()
        ))
    }
}

/// Fails unless every inserted rule of `block` forwards to a neighbour
/// of its device — for a ToR, an aggregation switch of its own pod.
pub fn check_stays_in_pod(plane: &Plane, block: &[Update]) -> Result<(), String> {
    for (dev, u) in block {
        let hops = plane.next_hops(u.rule.action);
        if hops.len() != 1 || !plane.successors(*dev).contains(&hops[0]) {
            return Err(format!("device {} flips a rule outside its pod", dev.0));
        }
    }
    Ok(())
}

/// The order in which the devices report in arrival epoch `epoch`: tier
/// after tier as `tiers` lists them, in a seeded order inside each tier.
pub fn arrival_order(seed: u64, epoch: u64, tiers: &[Vec<usize>]) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x0A77 + epoch);
    let mut order = Vec::new();
    for tier in tiers {
        let at = order.len();
        order.extend_from_slice(tier);
        rng.shuffle(&mut order[at..]);
    }
    order
}

/// The query mix of one client: 60% reachability, 30% waypoint, 10%
/// two-rule what-if, all aimed at ToR prefixes.
pub struct QueryMix {
    rng: Rng,
    tors: Vec<(DeviceId, u64, u32)>,
    devices: u32,
    /// Rules a what-if block may delete.
    rules: Vec<Rule>,
}

impl QueryMix {
    pub fn new(seed: u64, tors: &TorPrefixes, devices: usize, rules: Vec<Rule>) -> QueryMix {
        QueryMix {
            rng: Rng::new(seed, 0x0051),
            tors: tors.0.clone(),
            devices: devices as u32,
            rules,
        }
    }

    pub fn next(&mut self) -> Query {
        let (src, _, _) = self.tors[self.rng.below(self.tors.len())];
        let (dst, prefix_value, prefix_len) = self.tors[self.rng.below(self.tors.len())];
        match self.rng.below(10) {
            0..=5 => Query::Reach {
                src,
                dst,
                prefix_value,
                prefix_len,
            },
            6..=8 => Query::Waypoint {
                src,
                via: DeviceId(self.rng.below(self.devices as usize) as u32),
                dst,
                prefix_value,
                prefix_len,
            },
            _ => Query::WhatIf {
                block: (0..2)
                    .map(|_| RuleUpdate::delete(self.rules[self.rng.below(self.rules.len())]))
                    .collect(),
            },
        }
    }
}
