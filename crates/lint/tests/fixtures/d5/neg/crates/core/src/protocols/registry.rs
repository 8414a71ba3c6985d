pub enum ProtocolId {
    Alpha,
    Beta,
}
