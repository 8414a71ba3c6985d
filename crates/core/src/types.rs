//! Core value and identifier types shared by all protocols.

use std::fmt;

pub use fastreg_atomicity::history::RegValue;

/// A write timestamp. `Timestamp(0)` is the initial timestamp (associated
/// with the register's initial value `⊥`); the writer's first write carries
/// `Timestamp(1)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The initial timestamp.
    pub(crate) const ZERO: Timestamp = Timestamp(0);
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A multi-writer timestamp: sequence number with writer id as tie-breaker,
/// ordered lexicographically (Lynch–Shvartsman style, used by the MWMR
/// baseline of §7).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WTimestamp {
    /// Monotone sequence number.
    pub seq: u64,
    /// Writer id tie-breaker.
    pub wid: u32,
}

impl fmt::Debug for WTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}.{}", self.seq, self.wid)
    }
}

/// The paper's `pid` mapping over clients: the writer is `0`, reader
/// `r_i` is `i` (1-based). Used in `seen` sets and the per-client
/// `counter[]` array of Fig. 2.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl ClientId {
    /// The writer's client id.
    pub const WRITER: ClientId = ClientId(0);

    /// The id of reader `i` (0-based index into the reader set — reader 0
    /// is the paper's `r1`).
    pub fn reader(index: u32) -> ClientId {
        ClientId(index + 1)
    }

    /// Returns `true` if this is the writer.
    pub(crate) fn is_writer(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_writer() {
            write!(f, "w")
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

/// A set of clients as a 64-bit mask: bit `i` is `ClientId(i)`. This is
/// the `seen` set of Fig. 2 / Fig. 5 — copied into every ack and
/// intersected by the fast-read predicate — over a universe of `R + 1`
/// clients, which is why the fast protocols deploy at most
/// [`ClientSet::CAPACITY`] of them. Renders like the `BTreeSet<ClientId>`
/// with the same members.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientSet(u64);

impl ClientSet {
    /// The most clients (`R + 1`) a set can tell apart.
    pub const CAPACITY: u32 = u64::BITS;

    /// The empty set.
    pub const EMPTY: ClientSet = ClientSet(0);

    /// Adds `client`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is not below [`CAPACITY`](Self::CAPACITY);
    /// building a deployment of a `seen`-keeping protocol rejects such
    /// populations first.
    pub(crate) fn insert(&mut self, client: ClientId) {
        assert!(
            client.0 < Self::CAPACITY,
            "{client:?} does not fit a {}-client set",
            Self::CAPACITY
        );
        self.0 |= 1 << client.0;
    }

    /// Removes `client`, if it is a member.
    pub(crate) fn remove(&mut self, client: ClientId) {
        if client.0 < Self::CAPACITY {
            self.0 &= !(1 << client.0);
        }
    }

    /// Returns `true` if `client` is a member.
    pub(crate) fn contains(self, client: ClientId) -> bool {
        client.0 < Self::CAPACITY && self.0 & (1 << client.0) != 0
    }

    /// Returns `true` if every member of `other` is a member.
    pub(crate) fn is_superset(self, other: ClientSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// The members of either set.
    pub(crate) fn union(self, other: ClientSet) -> ClientSet {
        ClientSet(self.0 | other.0)
    }

    /// Number of members.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Returns `true` if there are no members.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The members, in increasing id order.
    pub fn iter(self) -> impl Iterator<Item = ClientId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let lowest = bits.trailing_zeros();
                bits &= bits - 1;
                ClientId(lowest)
            })
        })
    }
}

impl From<ClientId> for ClientSet {
    /// The set holding only `client`.
    fn from(client: ClientId) -> Self {
        let mut set = ClientSet::EMPTY;
        set.insert(client);
        set
    }
}

impl FromIterator<ClientId> for ClientSet {
    fn from_iter<I: IntoIterator<Item = ClientId>>(clients: I) -> Self {
        let mut set = ClientSet::EMPTY;
        clients.into_iter().for_each(|client| set.insert(client));
        set
    }
}

impl fmt::Debug for ClientSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The two value tags the writer attaches to a timestamp (§4): the value of
/// the write carrying the timestamp, and the value of the immediately
/// preceding write. A reader that cannot prove the newest value safe
/// returns the `prev` tag — the paper's "return maxTS − 1".
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaggedValue {
    /// The value written with this timestamp (`⊥` for `Timestamp::ZERO`).
    pub cur: RegValue,
    /// The value of the preceding write (`⊥` if none).
    pub prev: RegValue,
}

impl TaggedValue {
    /// Tags for the initial state (`⊥`, `⊥`) at `Timestamp::ZERO`.
    pub(crate) const INITIAL: TaggedValue = TaggedValue {
        cur: RegValue::Bottom,
        prev: RegValue::Bottom,
    };

    /// Tags for a write of `cur` whose predecessor wrote `prev`.
    pub(crate) fn new(cur: RegValue, prev: RegValue) -> Self {
        TaggedValue { cur, prev }
    }
}

impl fmt::Debug for TaggedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}|{}⟩", self.cur, self.prev)
    }
}

impl Default for TaggedValue {
    fn default() -> Self {
        TaggedValue::INITIAL
    }
}

/// Client roles in the SWMR protocols.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// The single writer `w`.
    Writer,
    /// Reader `r_{i+1}` (0-based index).
    Reader(u32),
    /// Server `s_{j+1}` (0-based index).
    Server(u32),
}

/// A convenience alias for written values.
pub type Value = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_orders_numerically() {
        assert!(Timestamp(2) > Timestamp(1));
        assert_eq!(format!("{:?} {}", Timestamp(3), Timestamp(3)), "ts3 3");
    }

    #[test]
    fn wtimestamp_orders_lexicographically() {
        let a = WTimestamp { seq: 1, wid: 5 };
        let b = WTimestamp { seq: 2, wid: 0 };
        let c = WTimestamp { seq: 2, wid: 1 };
        assert!(a < b);
        assert!(b < c);
        assert_eq!(format!("{c:?}"), "ts2.1");
    }

    #[test]
    fn client_id_mapping_matches_paper() {
        assert!(ClientId::WRITER.is_writer());
        assert_eq!(ClientId::reader(0), ClientId(1)); // r1 has pid 1
        assert_eq!(ClientId::reader(4), ClientId(5));
        assert!(!ClientId::reader(0).is_writer());
        assert_eq!(format!("{:?}", ClientId::WRITER), "w");
        assert_eq!(format!("{:?}", ClientId::reader(1)), "r2");
    }

    #[test]
    fn tagged_value_initial_is_bottom_pair() {
        assert_eq!(TaggedValue::INITIAL.cur, RegValue::Bottom);
        assert_eq!(TaggedValue::INITIAL.prev, RegValue::Bottom);
        assert_eq!(TaggedValue::default(), TaggedValue::INITIAL);
    }

    #[test]
    fn tagged_value_debug() {
        let t = TaggedValue::new(RegValue::Val(5), RegValue::Bottom);
        assert_eq!(format!("{t:?}"), "⟨5|⊥⟩");
    }
}
