pub enum ProtocolId {
    Alpha,
    Beta,
    Gamma,
}
