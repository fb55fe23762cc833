// LOCK01 fixture: no blocking calls while a lock guard is held.

impl Pool {
    fn bad_recv_under_lock(&self) {
        // POSITIVE: recv while holding the state lock.
        let st = self.state.lock();
        let msg = self.rx.recv();
        drop(st);
    }

    fn bad_join_under_lock(&self, handle: JoinHandle<()>) {
        // POSITIVE: join while holding a write guard.
        let g = self.inner.write();
        handle.join();
    }

    fn bad_wait_under_lock(&self, pending: &PendingBatch) {
        // POSITIVE: waiting on a pool batch with the map locked.
        let map = self.map.lock();
        let out = pending.wait();
    }

    fn bad_event_wait_under_lock(&self) {
        // POSITIVE: parking on the event queue with the table locked.
        let sessions = self.sessions.lock();
        let event = self.events.recv_timeout(TICK);
    }

    fn good_condvar_wait(&self) {
        // NEGATIVE: condvar wait consumes the guard, releasing the lock
        // while parked.
        let mut st = self.shared.lock();
        while !st.ready {
            st = self.cv.wait(st);
        }
    }

    fn good_scoped_guard(&self) {
        // NEGATIVE: the guard's block ends before the blocking call.
        {
            let g = self.state.lock();
            g.touch();
        }
        self.rx.recv();
    }

    fn good_drop_first(&self) {
        // NEGATIVE: explicit drop ends the guard scope.
        let g = self.state.lock();
        g.touch();
        drop(g);
        self.rx.recv();
    }

    fn good_closure_blocks_elsewhere(&self) {
        // NEGATIVE: the blocking call runs in another thread's closure.
        let g = self.state.lock();
        let h = std::thread::spawn(move || worker.rx.recv());
    }

    fn good_io_read_is_not_a_guard(&self, r: &mut impl Read, buf: &mut [u8]) {
        // NEGATIVE: `Read::read` takes arguments — not a guard
        // acquisition — so the later recv is unguarded.
        let n = r.read(buf);
        self.rx.recv();
    }

    fn good_immediate_drop(&self) {
        // NEGATIVE: `let _ = …lock()` drops the guard on the spot.
        let _ = self.state.lock();
        self.rx.recv();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_join_under_lock() {
        // NEGATIVE: test code is exempt.
        let g = state.lock();
        handle.join();
    }
}
