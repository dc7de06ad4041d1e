(** Calibration constants for the simulated Nectar hardware and software.

    Constants annotated "paper" are taken directly from the paper; the rest
    are derived so that the benches land on the published end-to-end numbers
    (Table 1, Figures 6-8) — see DESIGN.md section 5.  All times are in
    nanoseconds.  The fabric's constants (fiber rate, HUB setup, chunk
    size) are in [Nectar_hub.Network]. *)

(** {1 CAB (paper sections 2.2 and 3.1)} *)

(** CAB input/output FIFO capacity. *)
val fifo_bytes : int

(** paper: 16.5 MHz SPARC. *)
val cab_cycle_ns : int

val cab_cycles : int -> int

(** paper: 35 ns static RAM, 32-bit wide. *)
val mem_dma_ns_per_byte : int

(** paper: 20 us thread context switch. *)
val ctx_switch_ns : int

val irq_dispatch_ns : int

(** paper: 1 Mbyte data memory. *)
val data_memory_bytes : int

(** paper: 1 Kbyte protection pages. *)
val page_bytes : int

(** {1 Scheduling priorities (paper section 3.1)} *)

val prio_interrupt : int

(** System threads, e.g. protocol threads. *)
val prio_system : int

(** Preemptible application threads. *)
val prio_app : int

(** {1 VME (paper sections 6.1 and 6.3)} *)

(** paper: ~1 us per word read/write. *)
val vme_word_ns : int

val vme_pio_batch_bytes : int

(** paper: ~30 Mbit/s bus bandwidth. *)
val vme_dma_ns_per_byte : int

(** {1 Host (Sun-4 running UNIX)} *)

val host_ctx_switch_ns : int
val host_syscall_ns : int
val host_irq_dispatch_ns : int
val host_poll_iteration_ns : int

(** Application-level cost to produce/consume message contents. *)
val host_msg_touch_ns_per_byte : int

(** {1 CAB runtime operations (paper sections 3.3 and 3.4)} *)

val mbox_begin_put_ns : int
val mbox_end_put_ns : int
val mbox_begin_get_ns : int
val mbox_end_get_ns : int
val mbox_enqueue_ns : int

(** Charged when the cached buffer cannot be used. *)
val heap_alloc_ns : int

val sync_op_ns : int
val upcall_ns : int
val signal_queue_op_ns : int

(** {1 Protocol processing (paper section 4)} *)

val dl_tx_setup_ns : int
val dl_rx_header_ns : int
val ip_output_ns : int
val ip_input_ns : int

(** Charged in the start-of-data upcall, overlapping the rest of the
    packet's arrival (paper section 4.1). *)
val ip_hdr_check_ns : int
val ip_frag_ns : int
val icmp_ns : int
val udp_input_ns : int
val udp_output_ns : int
val tcp_input_ns : int
val tcp_output_ns : int

(** Software checksum: the TCP-vs-RMP gap of Figure 7. *)
val tcp_cksum_ns_per_byte : int

val dgram_ns : int
val rmp_ns : int
val reqresp_ns : int

(** {1 Host-resident networking (network-device mode, section 5.1)} *)

val host_ip_ns : int
val host_udp_ns : int

(** Socket layer + mbuf handling per packet. *)
val host_socket_ns : int

(** Netdev driver per packet. *)
val host_driver_ns : int

(** User-kernel copies and software checksums in the host stack. *)
val host_stack_ns_per_byte : int

(** 10 Mbit/s on-board Ethernet baseline. *)
val ether_ns_per_byte : int

val ether_overhead_ns : int
