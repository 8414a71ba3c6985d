//! In-transit messages.

use std::fmt;

use crate::id::ProcessId;
use crate::time::SimTime;

/// A unique, monotonically increasing identifier for a sent message.
///
/// `MsgId` order is send order, which gives the scripted scheduler a stable
/// way to refer to individual in-transit messages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A message in the in-transit set `mset`, together with its routing
/// metadata.
///
/// An envelope exists from the moment its sender's step completes until a
/// scheduler delivers it (or a fault explicitly drops it — reliable channels
/// never drop messages on their own).
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Unique id, in global send order.
    pub id: MsgId,
    /// Sender address ([`ProcessId::EXTERNAL`] for injected invocations).
    pub from: ProcessId,
    /// Receiver address.
    pub to: ProcessId,
    /// Virtual time at which the sender's step completed.
    pub sent_at: SimTime,
    /// Earliest virtual time a timed scheduler may deliver this message.
    pub ready_at: SimTime,
    /// The payload.
    pub msg: M,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_formats() {
        assert_eq!(format!("{}", MsgId(3)), "m3");
        assert_eq!(format!("{:?}", MsgId(3)), "m3");
    }

    #[test]
    fn msg_id_orders_by_send_order() {
        assert!(MsgId(1) < MsgId(2));
    }
}
