//@path crates/dtu/src/dtu.rs
// A field that shares its name with a charging fn is not a call of it:
// `deposit` reads `msg.header.reply` and queues the message, but nothing
// it calls charges cycles. A call of the charging fn still counts
// (`answer`).

impl EpFile {
    pub fn deposit(&mut self, msg: Message) -> bool {
        let wants_reply = msg.header.reply.is_some();
        self.queue.push_back(msg);
        wants_reply
    }
}

impl Dtu {
    pub async fn reply(&self, msg: &Message) {
        self.sim.sleep(timing::REPLY).await;
    }

    pub async fn answer(&self, msg: &Message) {
        self.state.borrow_mut().replied += 1;
        self.reply(msg).await;
    }
}
