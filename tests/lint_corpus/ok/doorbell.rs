//@path crates/libos/src/env.rs
// User code may wait on a notify it was handed and name its own things
// `doorbell`; only the token's `ctx_doorbell` registrar is gated.

pub async fn wait_for_doorbell(doorbell: &Notify) {
    doorbell.wait().await;
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_reach_the_registrar() {
        let tok = dtu.claim_kernel_token().unwrap();
        let _bell = tok.ctx_doorbell(PE, 7).unwrap();
    }
}
