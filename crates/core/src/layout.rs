//! Mapping between protocol roles and transport addresses.
//!
//! Every cluster places its actors in a fixed order — writers, then
//! readers, then servers — so that role/address conversions are pure
//! arithmetic and identical across the simulated and threaded runtimes.
//! A register deployment owns its world's addresses from 0; the sharded
//! store places many registers in one world, each a block of actors
//! from a base address ([`Layout::at`]).

use fastreg_simnet::id::ProcessId;

use crate::config::ClusterConfig;
use crate::types::{ClientId, Role};

/// The address layout of one cluster: `W` writers, then `R` readers, then
/// `S` servers, from a base address (0 for [`Layout::of`]).
///
/// # Examples
///
/// ```
/// use fastreg::config::ClusterConfig;
/// use fastreg::layout::Layout;
///
/// let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
/// let layout = Layout::of(&cfg);
/// assert_eq!(layout.writer(0).index(), 0);
/// assert_eq!(layout.reader(1).index(), 2);
/// assert_eq!(layout.server(0).index(), 3);
/// assert_eq!(layout.num_processes(), 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    base: u32,
    w: u32,
    r: u32,
    s: u32,
}

impl Layout {
    /// Builds the layout for a configuration.
    pub fn of(cfg: &ClusterConfig) -> Layout {
        Layout::at(cfg, 0)
    }

    /// The layout of a block of actors from address `base`: writer 0 is
    /// `base`, and an address outside `base..base + W + R + S` has no
    /// role, so a block's servers answer only its own clients.
    pub fn at(cfg: &ClusterConfig, base: u32) -> Layout {
        Layout {
            base,
            w: cfg.w,
            r: cfg.r,
            s: cfg.s,
        }
    }

    /// Address of writer `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn writer(&self, i: u32) -> ProcessId {
        assert!(i < self.w, "writer index {i} out of range (W = {})", self.w);
        ProcessId::new(self.base + i)
    }

    /// Address of reader `i` (0-based; reader 0 is the paper's `r1`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn reader(&self, i: u32) -> ProcessId {
        assert!(i < self.r, "reader index {i} out of range (R = {})", self.r);
        ProcessId::new(self.base + self.w + i)
    }

    /// Address of server `j` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn server(&self, j: u32) -> ProcessId {
        assert!(j < self.s, "server index {j} out of range (S = {})", self.s);
        ProcessId::new(self.base + self.w + self.r + j)
    }

    /// All server addresses, in index order.
    pub(crate) fn servers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.s).map(|j| self.server(j))
    }

    /// All reader addresses, in index order.
    pub(crate) fn readers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.r).map(|i| self.reader(i))
    }

    /// Total number of processes.
    pub fn num_processes(&self) -> u32 {
        self.w + self.r + self.s
    }

    /// The role of an address, if it is within the layout.
    pub fn role_of(&self, p: ProcessId) -> Option<Role> {
        let i = self.local(p)?;
        if i < self.w {
            Some(Role::Writer)
        } else if i < self.w + self.r {
            Some(Role::Reader(i - self.w))
        } else if i < self.num_processes() {
            Some(Role::Server(i - self.w - self.r))
        } else {
            None
        }
    }

    /// The index of an address within the layout (`0..W + R + S`, the
    /// history's `proc` for a client), if it is at or above the base.
    pub(crate) fn local(&self, p: ProcessId) -> Option<u32> {
        p.index().checked_sub(self.base)
    }

    /// The server index of an address, if it is a server.
    pub fn server_index(&self, p: ProcessId) -> Option<u32> {
        match self.role_of(p) {
            Some(Role::Server(j)) => Some(j),
            _ => None,
        }
    }

    /// The paper's `pid` of a client address (writer → 0, reader `r_i` → i),
    /// if it is a client. Only meaningful for SWMR layouts (`W = 1`).
    pub(crate) fn client_pid(&self, p: ProcessId) -> Option<ClientId> {
        match self.role_of(p) {
            Some(Role::Writer) => Some(ClientId::WRITER),
            Some(Role::Reader(i)) => Some(ClientId::reader(i)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout523() -> Layout {
        Layout::of(&ClusterConfig::crash_stop(5, 1, 2).unwrap())
    }

    #[test]
    fn addresses_are_contiguous() {
        let l = layout523();
        assert_eq!(l.writer(0).index(), 0);
        assert_eq!(l.reader(0).index(), 1);
        assert_eq!(l.reader(1).index(), 2);
        assert_eq!(l.server(0).index(), 3);
        assert_eq!(l.server(4).index(), 7);
        assert_eq!(l.servers().count(), 5);
        assert_eq!(l.readers().count(), 2);
    }

    #[test]
    fn roles_roundtrip() {
        let l = layout523();
        assert_eq!(l.role_of(l.writer(0)), Some(Role::Writer));
        assert_eq!(l.role_of(l.reader(1)), Some(Role::Reader(1)));
        assert_eq!(l.role_of(l.server(3)), Some(Role::Server(3)));
        assert_eq!(l.role_of(ProcessId::new(99)), None);
    }

    #[test]
    fn client_pids_match_paper() {
        let l = layout523();
        assert_eq!(l.client_pid(l.writer(0)), Some(ClientId::WRITER));
        assert_eq!(l.client_pid(l.reader(0)), Some(ClientId(1)));
        assert_eq!(l.client_pid(l.reader(1)), Some(ClientId(2)));
        assert_eq!(l.client_pid(l.server(0)), None);
    }

    #[test]
    fn server_index_extraction() {
        let l = layout523();
        assert_eq!(l.server_index(l.server(2)), Some(2));
        assert_eq!(l.server_index(l.writer(0)), None);
    }

    #[test]
    fn a_based_layout_is_the_unbased_one_shifted() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let (plain, base) = (Layout::of(&cfg), 16);
        let block = Layout::at(&cfg, base);
        let shift = |p: ProcessId| ProcessId::new(p.index() + base);
        assert_eq!(Layout::at(&cfg, 0), plain);
        assert_eq!(block.num_processes(), plain.num_processes());
        for i in 0..plain.num_processes() {
            let (p, q) = (ProcessId::new(i), ProcessId::new(i + base));
            assert_eq!(block.role_of(q), plain.role_of(p), "address {i}");
            assert_eq!(block.server_index(q), plain.server_index(p), "address {i}");
            assert_eq!(block.client_pid(q), plain.client_pid(p), "address {i}");
            assert_eq!(block.local(q), Some(i));
        }
        assert_eq!(block.writer(0), shift(plain.writer(0)));
        assert_eq!(block.reader(1), shift(plain.reader(1)));
        assert_eq!(block.server(4), shift(plain.server(4)));
        let servers: Vec<_> = plain.servers().map(shift).collect();
        assert_eq!(block.servers().collect::<Vec<_>>(), servers);
        let readers: Vec<_> = plain.readers().map(shift).collect();
        assert_eq!(block.readers().collect::<Vec<_>>(), readers);
    }

    #[test]
    fn a_neighbouring_block_has_no_role() {
        // Blocks of 8 at 0, 8 and 16: the middle one's servers must not
        // take either neighbour's clients (or servers) for their own.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let (below, block, above) = (
            Layout::at(&cfg, 0),
            Layout::at(&cfg, 8),
            Layout::at(&cfg, 16),
        );
        for neighbour in [below, above] {
            for i in 0..neighbour.num_processes() {
                let p = ProcessId::new(neighbour.writer(0).index() + i);
                assert_eq!(block.role_of(p), None, "{p}");
                assert_eq!(block.client_pid(p), None, "{p}");
                assert_eq!(block.server_index(p), None, "{p}");
            }
        }
        assert_eq!(block.role_of(ProcessId::EXTERNAL), None);
        assert_eq!(block.local(below.server(4)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_reader_panics() {
        layout523().reader(2);
    }

    #[test]
    fn mwmr_layout_places_writers_first() {
        let cfg = ClusterConfig::mwmr(3, 1, 2, 2).unwrap();
        let l = Layout::of(&cfg);
        assert_eq!(l.writer(1).index(), 1);
        assert_eq!(l.reader(0).index(), 2);
        assert_eq!(l.server(0).index(), 4);
        assert_eq!(l.role_of(l.writer(1)), Some(Role::Writer));
    }
}
