#[test]
fn conformance() {
    exercise(ProtocolId::Alpha);
}
