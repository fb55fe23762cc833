// WIRE01 fixture: nothing but hash-then-encrypt output reaches the wire.

fn bad_raw_send<T: Transport>(transport: &mut T, values: &[Vec<u8>]) {
    // POSITIVE: a raw set value straight onto the wire.
    transport.send(&values[0]);
}

fn bad_hash_only<T: Transport>(group: &QrGroup, transport: &mut T, values: &[Vec<u8>]) {
    // POSITIVE: hashed but not encrypted — a bare h(v) permits offline
    // dictionary probing.
    let hashed = group.hash_value(&values[0]);
    transport.send(&frame_bytes(&hashed));
}

fn bad_key_send<T: Transport, R: Rng>(group: &QrGroup, transport: &mut T, rng: &mut R) {
    // POSITIVE: key material can never travel.
    let key = group.gen_key(rng);
    transport.send(&key.to_bytes());
}

fn bad_alias_chain<T: Transport>(transport: &mut T, values: &[Vec<u8>]) {
    // POSITIVE: taint survives rebinding and buffer building.
    let staged = values.to_vec();
    let mut frame = Vec::new();
    for v in &staged {
        frame.extend_from_slice(v);
    }
    transport.send_batch(&frame);
}

fn bad_raw_socket_write(stream: &TcpStream, values: &[Vec<u8>]) {
    // POSITIVE: the socket framer is a sink too; going around `send`
    // does not go around the rule.
    write_frame(stream, &values[0]);
}

fn good_h_then_enc<T: Transport, R: Rng>(
    group: &QrGroup,
    transport: &mut T,
    values: &[Vec<u8>],
    rng: &mut R,
) -> Result<(), ProtocolError> {
    // NEGATIVE: the blessed path — hash, encrypt, send.
    let prepared = prepare_set(group, values)?;
    let key = group.gen_key(rng);
    let ys: Vec<UBig> = prepared.iter().map(|h| group.encrypt(&key, h)).collect();
    transport.send_batch(&ys);
    Ok(())
}

fn good_framing<T: Transport>(transport: &mut T, n: u64) {
    // NEGATIVE: protocol framing carries only public counters.
    transport.send(&n.to_le_bytes());
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_harness_may_send_anything() {
        // NEGATIVE: test code is exempt.
        transport.send(&values[0]);
    }
}
