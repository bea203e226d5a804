//! Conc-analysis fixture: three seeded concurrency defects at pinned
//! lines — an AB/BA lock nesting (two `nested-lock` sites), an
//! `if`-guarded Condvar wait and a guard held across a blocking `join()`.
//! The source walker skips `fixtures` directories, so this file never
//! reaches the real gate; the tests feed it to `conc::analyze` directly
//! and assert the exact `file:line` of every finding.

use std::sync::{Condvar, Mutex};

pub struct Pair {
    pub alpha: Mutex<u32>,
    pub beta: Mutex<u32>,
    pub ready: Condvar,
}

impl Pair {
    pub fn ab(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock(); // nested-lock: beta while holding alpha (line 19)
        drop(b);
        drop(a);
    }

    pub fn ba(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock(); // nested-lock: alpha while holding beta (line 26)
        drop(a);
        drop(b);
    }

    pub fn if_guarded_wait(&self) {
        let mut g = self.alpha.lock();
        if *g == 0 {
            g = self.ready.wait(g); // condvar-no-loop (line 34)
        }
        drop(g);
    }

    pub fn guard_across_join(&self, h: std::thread::JoinHandle<()>) {
        let g = self.beta.lock();
        let _ = h.join(); // guard-across-blocking (line 41)
        drop(g);
    }
}
