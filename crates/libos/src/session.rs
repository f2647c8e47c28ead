//! Client side of the service protocol (§4.5.3).

use std::fmt;

use m3_base::error::Result;
use m3_base::SelId;
use m3_kernel::protocol::Syscall;

use crate::env::{Env, WeakEnv};

/// A session with a named service, opened through the kernel.
pub struct ClientSession {
    env: WeakEnv,
    sel: SelId,
}

impl fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClientSession({})", self.sel)
    }
}

impl ClientSession {
    /// Opens a session with service `name`, waiting briefly for the service
    /// to register if it has not yet (services and their clients boot in
    /// parallel on different PEs).
    ///
    /// # Errors
    ///
    /// Returns [`m3_base::error::Code::InvService`] if the service never
    /// appears, or the service's denial code.
    pub async fn connect(env: &Env, name: &str, arg: u64) -> Result<ClientSession> {
        // Services may spend a while initializing before they register
        // (m3fs writes its initial tree first); wait up to ~2.5M cycles.
        const RETRIES: u32 = 256;
        const BACKOFF: m3_base::Cycles = m3_base::Cycles::new(10_000);
        let sel = env.alloc_sel();
        let mut attempt = 0;
        loop {
            match env
                .syscall(Syscall::OpenSess {
                    dst: sel,
                    name: name.to_string(),
                    arg,
                })
                .await
            {
                Ok(_) => {
                    return Ok(ClientSession {
                        env: env.downgrade(),
                        sel,
                    })
                }
                Err(e) if e.code() == m3_base::error::Code::InvService && attempt < RETRIES => {
                    attempt += 1;
                    env.compute(BACKOFF).await;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The session capability selector.
    pub fn sel(&self) -> SelId {
        self.sel
    }

    /// Obtains up to `n` capabilities from the service; returns the local
    /// selectors that were filled and the service's reply bytes. The service
    /// may grant fewer than `n` capabilities.
    ///
    /// # Errors
    ///
    /// Returns the service's denial code, or transport errors.
    pub async fn obtain(&self, n: usize, args: &[u8]) -> Result<(Vec<SelId>, Vec<u8>)> {
        let env = self.env.get();
        let caps: Vec<SelId> = (0..n).map(|_| env.alloc_sel()).collect();
        let reply = env
            .syscall(Syscall::ExchangeSess {
                sess: self.sel,
                obtain: true,
                caps: caps.clone(),
                args: args.to_vec(),
            })
            .await?;
        Ok((caps, reply))
    }

    /// Delegates the given capabilities to the service; returns the
    /// service's reply bytes.
    ///
    /// # Errors
    ///
    /// Returns the service's denial code, or transport errors.
    pub async fn delegate(&self, caps: &[SelId], args: &[u8]) -> Result<Vec<u8>> {
        self.env
            .get()
            .syscall(Syscall::ExchangeSess {
                sess: self.sel,
                obtain: false,
                caps: caps.to_vec(),
                args: args.to_vec(),
            })
            .await
    }

    /// Revokes the session capability.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub async fn close(self) -> Result<()> {
        let env = self.env.get();
        env.syscall(Syscall::Revoke { sel: self.sel }).await?;
        Ok(())
    }
}
