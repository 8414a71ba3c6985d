//! Mapping between protocol roles and transport addresses.
//!
//! Every cluster places its actors in a fixed order — writers, then
//! readers, then servers — so that role/address conversions are pure
//! arithmetic and identical across the simulated and threaded runtimes.

use fastreg_simnet::id::ProcessId;

use crate::config::ClusterConfig;
use crate::types::{ClientId, Role};

/// The address layout of one cluster: `W` writers, then `R` readers, then
/// `S` servers.
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
    w: u32,
    r: u32,
    s: u32,
}

impl Layout {
    /// Builds the layout for a configuration.
    pub fn of(cfg: &ClusterConfig) -> Layout {
        Layout {
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
        ProcessId::new(i)
    }

    /// Address of reader `i` (0-based; reader 0 is the paper's `r1`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn reader(&self, i: u32) -> ProcessId {
        assert!(i < self.r, "reader index {i} out of range (R = {})", self.r);
        ProcessId::new(self.w + i)
    }

    /// Address of server `j` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn server(&self, j: u32) -> ProcessId {
        assert!(j < self.s, "server index {j} out of range (S = {})", self.s);
        ProcessId::new(self.w + self.r + j)
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
        let i = p.index();
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
