//! Service and session kernel objects.
//!
//! OS functionality (filesystems, pipes, …) is implemented by applications
//! acting as services (§4.5.1). The kernel keeps a registry of named
//! services; clients open *sessions*, and capability exchanges over a
//! session are forwarded to the service, which may deny them (§4.5.3).

use std::collections::BTreeMap;
use std::rc::Rc;

use m3_base::error::{Code, Error, Result};
use m3_base::{EpId, VpeId};

use crate::cap::RGateObj;

/// A registered service.
#[derive(Debug)]
pub struct ServObj {
    /// Global name clients open sessions with.
    pub name: String,
    /// The VPE implementing the service.
    pub owner: VpeId,
    /// The receive gate the service handles kernel requests on.
    pub rgate: Rc<RGateObj>,
    /// The kernel-side send endpoint configured for this service.
    pub kernel_ep: EpId,
}

/// A session between a client VPE and a service.
#[derive(Debug)]
pub struct SessObj {
    /// The service this session belongs to.
    pub serv: Rc<ServObj>,
    /// The service-chosen identifier ("typically the address of the object
    /// that corresponds to the sender", §4.4.2).
    pub ident: u64,
}

/// The kernel's service registry.
#[derive(Default, Debug)]
pub struct ServiceRegistry {
    services: BTreeMap<String, Rc<ServObj>>,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry::default()
    }

    /// Registers a service.
    ///
    /// # Errors
    ///
    /// Returns [`Code::Exists`] if the name is taken.
    pub fn register(&mut self, serv: Rc<ServObj>) -> Result<()> {
        if self.services.contains_key(&serv.name) {
            return Err(Error::new(Code::Exists).with_msg(format!("service {}", serv.name)));
        }
        self.services.insert(serv.name.clone(), serv);
        Ok(())
    }

    /// Looks up a service by name.
    ///
    /// # Errors
    ///
    /// Returns [`Code::InvService`] if no such service exists.
    pub fn find(&self, name: &str) -> Result<Rc<ServObj>> {
        self.services
            .get(name)
            .cloned()
            .ok_or_else(|| Error::new(Code::InvService).with_msg(name.to_string()))
    }

    /// Removes `serv` if it is the service registered under its name;
    /// returns whether it was.
    pub fn unregister(&mut self, serv: &Rc<ServObj>) -> bool {
        let registered = self.is_registered(serv);
        if registered {
            self.services.remove(&serv.name);
        }
        registered
    }

    /// Whether `serv` is the service registered under its name.
    pub fn is_registered(&self, serv: &Rc<ServObj>) -> bool {
        let registered = self.services.get(&serv.name);
        registered.is_some_and(|s| Rc::ptr_eq(s, serv))
    }

    /// Whether a registered service holds kernel endpoint `ep`.
    pub fn holds_ep(&self, ep: EpId) -> bool {
        self.services.values().any(|s| s.kernel_ep == ep)
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// The registered service names, always in lexicographic order.
    ///
    /// The registry is keyed on a `BTreeMap` precisely so that anything
    /// iterating services (diagnostics, shutdown, future broadcasts) sees
    /// one deterministic order regardless of registration order
    /// (DESIGN.md §4.1).
    pub fn names(&self) -> Vec<String> {
        self.services.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serv(name: &str) -> Rc<ServObj> {
        Rc::new(ServObj {
            name: name.to_string(),
            owner: VpeId::new(1),
            rgate: RGateObj::new(VpeId::new(1), 8, 512),
            kernel_ep: EpId::new(2),
        })
    }

    #[test]
    fn register_find_unregister() {
        let mut reg = ServiceRegistry::new();
        let m3fs = serv("m3fs");
        reg.register(m3fs.clone()).unwrap();
        assert_eq!(reg.find("m3fs").unwrap().name, "m3fs");
        assert_eq!(reg.find("nope").unwrap_err().code(), Code::InvService);
        assert!(reg.holds_ep(EpId::new(2)));
        let other = serv("m3fs");
        assert_eq!(
            reg.register(other.clone()).unwrap_err().code(),
            Code::Exists
        );
        assert!(!reg.unregister(&other), "another object of the same name");
        assert!(reg.unregister(&m3fs));
        assert!(reg.is_empty());
        assert!(!reg.holds_ep(EpId::new(2)));
    }

    #[test]
    fn listing_order_is_deterministic_and_ignores_registration_order() {
        let mut forward = ServiceRegistry::new();
        for name in ["pager", "m3fs", "net", "console"] {
            forward.register(serv(name)).unwrap();
        }
        let mut backward = ServiceRegistry::new();
        for name in ["console", "net", "m3fs", "pager"] {
            backward.register(serv(name)).unwrap();
        }
        let expected = vec!["console", "m3fs", "net", "pager"];
        assert_eq!(forward.names(), expected);
        assert_eq!(
            backward.names(),
            expected,
            "order must not depend on registration order"
        );
    }
}
