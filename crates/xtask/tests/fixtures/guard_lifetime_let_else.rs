//! Seeded fixture: `guard-lifetime-audit` after a `let … else { return; }`.
//! The shape of the campaign service's bin worker: the `return` leaves only
//! the `else` path, so the state guard stays live over the sleep that
//! follows and `bin_after_let_else` must fire. `bin_scoped` takes its
//! values out in a block and sleeps after the guard's scope closes, and
//! stays clean.

pub struct Service {
    state: std::sync::Mutex<State>,
}

pub struct State;

impl Service {
    pub fn bin_after_let_else(&self, id: u32) {
        let mut st = self.state.lock().unwrap();
        let Some(job) = st.job_mut(id) else {
            return;
        };
        std::thread::sleep(std::time::Duration::from_millis(1));
        job.touch();
    }

    pub fn bin_scoped(&self, id: u32) {
        let token = {
            let mut st = self.state.lock().unwrap();
            let Some(job) = st.job_mut(id) else {
                return;
            };
            job.token()
        };
        std::thread::sleep(std::time::Duration::from_millis(1));
        token.touch();
    }
}
