let us n = n * 1_000

(* CAB *)
let fifo_bytes = 4096
let cab_cycle_ns = 61 (* 16.5 MHz *)
let cab_cycles n = n * cab_cycle_ns
let mem_dma_ns_per_byte = 9 (* 35 ns SRAM cycle over a 32-bit path *)
let ctx_switch_ns = us 20
let irq_dispatch_ns = us 6
let data_memory_bytes = 1 lsl 20
let page_bytes = 1024

(* Priorities *)
let prio_interrupt = 100
let prio_system = 50
let prio_app = 10

(* VME *)
let vme_word_ns = 1_070 (* an effective ~30 Mbit/s bus, per section 6.3 *)
let vme_pio_batch_bytes = 128
let vme_dma_ns_per_byte = 267 (* ~30 Mbit/s *)

(* Host *)
let host_ctx_switch_ns = us 100
let host_syscall_ns = us 50
let host_irq_dispatch_ns = us 20
let host_poll_iteration_ns = us 2
let host_msg_touch_ns_per_byte = 60

(* Runtime operations.  The CAB-side costs correspond to a few hundred SPARC
   instructions each; host-side mailbox operations add VME traffic on top of
   these (charged in Nectar_host.Hostlib). *)
let mbox_begin_put_ns = us 4
let mbox_end_put_ns = us 3
let mbox_begin_get_ns = us 3
let mbox_end_get_ns = us 3
let mbox_enqueue_ns = us 4
let heap_alloc_ns = us 5
let sync_op_ns = us 2
let upcall_ns = us 2
let signal_queue_op_ns = us 3

(* Protocols *)
let dl_tx_setup_ns = us 12
let dl_rx_header_ns = us 12
let ip_output_ns = us 12
let ip_input_ns = us 10
let ip_hdr_check_ns = us 5
let ip_frag_ns = us 6
let icmp_ns = us 8
let udp_input_ns = us 12
let udp_output_ns = us 12
let tcp_input_ns = us 25
let tcp_output_ns = us 20
let tcp_cksum_ns_per_byte = 120
let dgram_ns = us 10
let rmp_ns = us 8
let reqresp_ns = us 8

(* Host-resident networking (1990 BSD path: socket layer, mbufs, softnet).
   Fixed per-packet costs plus a per-byte component for the user-kernel
   copies and software checksums the host stack performs. *)
let host_ip_ns = us 80
let host_udp_ns = us 80
let host_socket_ns = us 100
let host_driver_ns = us 100
let host_stack_ns_per_byte = 350
let ether_ns_per_byte = 800 (* 10 Mbit/s *)
let ether_overhead_ns = us 250
