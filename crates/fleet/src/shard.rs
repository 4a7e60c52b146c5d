//! Stream→shard assignment for the coordinator fleet.

use automon_core::quant;

/// Deterministic FNV-1a over a quantized cell — the stable hash the
/// cell router buckets with. (Not `DefaultHasher`: its algorithm is
/// explicitly unspecified across releases, and shard assignment must be
/// reproducible byte-for-byte.)
fn fnv1a_cells(cells: &[i64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in cells {
        for b in c.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Which shard (leaf coordinator) each global stream belongs to, and
/// the stream's local node id within that shard.
///
/// Local ids are dense per shard: member `k` of shard `s` is local node
/// `k` of `s`'s leaf coordinator. Rebalancing ([`ShardMap::adopt`])
/// appends the moved streams to the receiving shard, so survivors keep
/// their local ids and the adoptees get fresh ones — the receiving leaf
/// rebuilds its coordinator at the enlarged size anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shard_of: Vec<usize>,
    local_of: Vec<usize>,
    members: Vec<Vec<usize>>,
}

impl ShardMap {
    /// Round-robin assignment: stream `g` to shard `g % shards`. The
    /// default — balanced by construction and independent of the data.
    pub fn round_robin(streams: usize, shards: usize) -> Self {
        assert!(shards >= 1, "ShardMap: need at least one shard");
        assert!(
            streams >= shards,
            "ShardMap: {streams} streams cannot fill {shards} shards"
        );
        Self::from_assignment(shards, (0..streams).map(|g| g % shards).collect())
    }

    /// Cell-router assignment: bucket each stream by the quantized cell
    /// of its initial vector ([`quant::quantize_cell`]), so streams that
    /// land in one cell colocate on one leaf.
    /// Shards left empty by the hash are backfilled round-robin so
    /// every leaf coordinator has at least one member.
    pub fn by_cell(x0s: &[Vec<f64>], cell: f64, shards: usize) -> Self {
        assert!(shards >= 1, "ShardMap: need at least one shard");
        assert!(
            x0s.len() >= shards,
            "ShardMap: {} streams cannot fill {shards} shards",
            x0s.len()
        );
        let mut shard_of: Vec<usize> = x0s
            .iter()
            .map(|x| (fnv1a_cells(&quant::quantize_cell(x, cell)) % shards as u64) as usize)
            .collect();
        let mut count = vec![0usize; shards];
        for &s in &shard_of {
            count[s] += 1;
        }
        for s in 0..shards {
            while count[s] == 0 {
                // Steal a stream from the fullest shard, lowest stream
                // id first — deterministic and minimal.
                let donor = (0..shards).max_by_key(|&k| count[k]).unwrap();
                let g = shard_of.iter().position(|&x| x == donor).unwrap();
                shard_of[g] = s;
                count[donor] -= 1;
                count[s] += 1;
            }
        }
        Self::from_assignment(shards, shard_of)
    }

    fn from_assignment(shards: usize, shard_of: Vec<usize>) -> Self {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut local_of = vec![0usize; shard_of.len()];
        for (g, &s) in shard_of.iter().enumerate() {
            local_of[g] = members[s].len();
            members[s].push(g);
        }
        Self {
            shard_of,
            local_of,
            members,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// Number of global streams.
    pub fn streams(&self) -> usize {
        self.shard_of.len()
    }

    /// `(shard, local node id)` of global stream `g`.
    pub fn locate(&self, g: usize) -> (usize, usize) {
        (self.shard_of[g], self.local_of[g])
    }

    /// Global stream ids of shard `s`, in local-id order.
    pub fn members(&self, s: usize) -> &[usize] {
        &self.members[s]
    }

    /// Move every member of shard `from` to the end of shard `to`
    /// (leaf-crash rebalancing). Returns the moved streams in their old
    /// local order; `from` is left empty.
    pub fn adopt(&mut self, from: usize, to: usize) -> Vec<usize> {
        assert_ne!(from, to, "adopt: shard cannot adopt itself");
        let moved = std::mem::take(&mut self.members[from]);
        for &g in &moved {
            self.shard_of[g] = to;
            self.local_of[g] = self.members[to].len();
            self.members[to].push(g);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_balanced_and_consistent() {
        let m = ShardMap::round_robin(10, 3);
        assert_eq!(m.shards(), 3);
        assert_eq!(m.streams(), 10);
        assert_eq!(m.members(0), &[0, 3, 6, 9]);
        assert_eq!(m.members(1), &[1, 4, 7]);
        for g in 0..10 {
            let (s, l) = m.locate(g);
            assert_eq!(m.members(s)[l], g);
        }
    }

    #[test]
    fn cell_router_colocates_equal_cells_and_fills_every_shard() {
        // Streams 0 and 2 share cell [0, 0]; 1 and 3 share cell
        // [1, 0]. The two cells hash to different shards mod 2, so no
        // backfill disturbs the colocation this test asserts.
        let x0s = vec![
            vec![0.0001, 0.0],
            vec![0.0011, 0.0],
            vec![0.0009, 0.0],
            vec![0.0019, 0.0],
        ];
        let m = ShardMap::by_cell(&x0s, 1e-3, 2);
        assert_eq!(m.locate(0).0, m.locate(2).0);
        assert_eq!(m.locate(1).0, m.locate(3).0);
        for s in 0..2 {
            assert!(!m.members(s).is_empty());
        }
        // Deterministic: same inputs, same map.
        assert_eq!(m, ShardMap::by_cell(&x0s, 1e-3, 2));
    }

    #[test]
    fn adopt_moves_members_and_keeps_locations_consistent() {
        let mut m = ShardMap::round_robin(7, 3);
        let moved = m.adopt(1, 2);
        assert_eq!(moved, vec![1, 4]);
        assert!(m.members(1).is_empty());
        assert_eq!(m.members(2), &[2, 5, 1, 4]);
        for g in 0..7 {
            let (s, l) = m.locate(g);
            assert_eq!(m.members(s)[l], g);
        }
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn more_shards_than_streams_rejected() {
        ShardMap::round_robin(2, 3);
    }
}
