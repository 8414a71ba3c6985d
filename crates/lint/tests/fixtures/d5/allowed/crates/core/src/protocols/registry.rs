pub enum ProtocolId {
    Alpha,
    // fastreg-lint: allow(registry-completeness): experimental protocol, conformance tracked in ROADMAP.md
    Beta,
    // fastreg-lint: allow(registry-completeness): spec-only placeholder, no implementation yet
    Gamma,
}
