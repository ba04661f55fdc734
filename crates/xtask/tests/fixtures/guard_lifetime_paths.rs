//! Seeded fixture: `guard-lifetime-audit` resolves a path call by its
//! type. `Slow::new` blocks and `Quick::new` does not, so the guard held
//! across `Quick::new` stays clean and the one held across `Slow::new`
//! must fire.

pub struct Slow;
pub struct Quick;

impl Slow {
    pub fn new() -> Self {
        std::thread::sleep(std::time::Duration::from_millis(1));
        Slow
    }
}

impl Quick {
    pub fn new() -> Self {
        Quick
    }
}

pub struct Holder {
    state: std::sync::Mutex<u32>,
}

impl Holder {
    pub fn across_quick(&self) {
        let g = self.state.lock().unwrap();
        let quick = Quick::new();
        drop(g);
        drop(quick);
    }

    pub fn across_slow(&self) {
        let g = self.state.lock().unwrap();
        let slow = Slow::new();
        drop(g);
        drop(slow);
    }
}
