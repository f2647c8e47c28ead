//@path crates/dtu/src/dtu.rs
// A context's doorbell handed out off the token: an unprivileged caller
// could register a wake signal the DTU rings on another VPE's deposits.

impl KernelToken {
    pub fn ctx_doorbell(&self, target: PeId, ctx: u64) -> Result<Notify> {
        self.dtu.require_privileged()?;
        Ok(self.doorbells.entry((target, ctx)).or_default().clone())
    }
}

impl Dtu {
    pub fn doorbell_of(&self, ctx: u64) -> Result<Notify> {
        self.token.ctx_doorbell(self.pe, ctx)
    }
}
