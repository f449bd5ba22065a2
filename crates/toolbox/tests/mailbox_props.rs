//! Property tests for `gray_toolbox::mailbox`: deterministic ordering
//! invariants under randomized interleavings of submit, shed, and drain
//! across many ticks.
//!
//! The mailbox is the spine of the `gbd` daemon's tick loop, and the
//! daemon's determinism argument leans on exactly three promises:
//! tickets count up in global enqueue order, a drain yields pending
//! requests in that order (so per-client subsequences are FIFO), and
//! replies route by ticket regardless of which envelopes a server
//! chooses to shed (drop unanswered), of the order clients redeem in, and
//! of how many ticks a reply waits unredeemed.
//!
//! Replay a failing case from the harness banner:
//!
//! ```text
//! PROP_SEED=0x<seed> cargo test -q -p gray-toolbox --test mailbox_props
//! PROP_CASES=500 cargo test -q -p gray-toolbox --test mailbox_props
//! ```

use gray_toolbox::mailbox::{Mailbox, Ticket};
use gray_toolbox::prop::{check, Gen};

#[test]
fn ticket_order_and_per_client_fifo_survive_interleaved_ticks() {
    check("mailbox_interleaved_ticks", 40, |g: &mut Gen| {
        let mbox: Mailbox<u64, u64> = Mailbox::new();
        let clients: Vec<_> = (0..g.usize(1..6)).map(|_| mbox.client()).collect();
        let client_of = |ticket: Ticket, sent: &[(u64, Ticket, u64)]| {
            let (id, _, _) = sent.iter().find(|(_, t, _)| *t == ticket).unwrap();
            clients.iter().find(|c| c.id() == *id).unwrap().clone()
        };

        // Everything ever sent, in send order: (client, ticket, payload).
        let mut sent: Vec<(u64, Ticket, u64)> = Vec::new();
        // Tickets the server shed (drained but dropped without a reply).
        let mut shed: Vec<Ticket> = Vec::new();
        // Replies posted and not yet redeemed, with the expected value.
        let mut outstanding: Vec<(Ticket, u64)> = Vec::new();
        let mut drained_total: Vec<Ticket> = Vec::new();
        let mut payload = 0u64;

        let ticks = g.usize(2..8);
        for _ in 0..ticks {
            // Submit phase: a random burst from random clients. A ticket
            // redeemed before the server has answered it yields nothing,
            // and does not lose the reply that comes later.
            for _ in 0..g.usize(0..10) {
                let c = &clients[g.usize(0..clients.len())];
                let t = c.send(payload);
                sent.push((c.id(), t, payload));
                payload += 1;
                if g.bool_with(0.2) {
                    assert_eq!(c.try_take(t), None, "no reply before the server's");
                }
            }
            // Serve phase: drain everything; shed some, answer the rest.
            let before = mbox.pending();
            let batch = mbox.drain();
            assert_eq!(batch.len(), before, "drain takes exactly the backlog");
            assert_eq!(mbox.pending(), 0, "drain leaves the inbox empty");
            for env in batch {
                drained_total.push(env.ticket);
                if g.bool_with(0.3) {
                    shed.push(env.ticket);
                } else {
                    mbox.reply(env.ticket, env.req * 3 + 1);
                    outstanding.push((env.ticket, env.req * 3 + 1));
                }
            }
            // Redeem phase: a random share of every reply still waiting,
            // this tick's or earlier ones', in random order. Each redeems
            // exactly its own reply, once; the rest wait for a later tick.
            for _ in 0..g.usize(0..outstanding.len() + 1) {
                let (ticket, expect) = outstanding.swap_remove(g.usize(0..outstanding.len()));
                let client = client_of(ticket, &sent);
                assert_eq!(client.try_take(ticket), Some(expect));
                assert_eq!(client.try_take(ticket), None, "redeem is consuming");
            }
            assert_eq!(mbox.unredeemed(), outstanding.len(), "unredeemed is exact");
        }
        mbox.drain().into_iter().for_each(|env| {
            drained_total.push(env.ticket);
            shed.push(env.ticket);
        });

        // Global property: tickets are issued strictly increasing in send
        // order, across all clients and ticks.
        for pair in sent.windows(2) {
            assert!(
                pair[0].1.raw() < pair[1].1.raw(),
                "tickets must count up in enqueue order: {:?}",
                pair
            );
        }
        // Drains preserve global enqueue order: the concatenation of all
        // drained batches is exactly the send sequence.
        assert_eq!(
            drained_total,
            sent.iter().map(|(_, t, _)| *t).collect::<Vec<_>>(),
            "drain order must equal send order"
        );
        // Per-client FIFO: each client's envelopes appear in its own send
        // order within the drained stream (immediate corollary pinned
        // separately in case drain ever reorders between clients only).
        for c in &clients {
            let sent_by_c: Vec<Ticket> = sent
                .iter()
                .filter(|(id, _, _)| *id == c.id())
                .map(|(_, t, _)| *t)
                .collect();
            let drained_by_c: Vec<Ticket> = drained_total
                .iter()
                .copied()
                .filter(|t| sent_by_c.contains(t))
                .collect();
            assert_eq!(drained_by_c, sent_by_c, "client {} FIFO", c.id());
        }
        // Reply routing: every reply still waiting redeems exactly its own
        // value (once), in random order, and shed tickets redeem nothing.
        while !outstanding.is_empty() {
            let (ticket, expect) = outstanding.swap_remove(g.usize(0..outstanding.len()));
            let client = client_of(ticket, &sent);
            assert_eq!(client.try_take(ticket), Some(expect));
            assert_eq!(client.try_take(ticket), None, "redeem is consuming");
        }
        for ticket in &shed {
            let client = client_of(*ticket, &sent);
            assert_eq!(client.try_take(*ticket), None, "shed ticket has no reply");
        }
        assert_eq!(mbox.unredeemed(), 0, "every reply was redeemed");
    });
}
