type perm = No_access | Read_only | Read_write

exception Protection_fault of { domain : int; page : int; write : bool }

let domain_count = 8
let page_bytes = Costs.page_bytes

type t = {
  region : Nectar_util.Region.t;
  pages : int;
  perms : Bytes.t array;
      (* domain -> one permission byte per page; empty until the domain's
         first grant, when every page reads the domain's default *)
  mutable domain : int;
}

let create ?(data_bytes = Costs.data_memory_bytes) () =
  {
    region = Nectar_util.Region.create data_bytes;
    pages = (data_bytes + page_bytes - 1) / page_bytes;
    perms = Array.make domain_count Bytes.empty;
    domain = 0;
  }

let region t = t.region
let data_bytes t = Nectar_util.Region.size t.region
let resident_bytes t = Nectar_util.Region.resident_bytes t.region
let page_of pos = pos / page_bytes

let default_perm domain = if domain = 0 then Read_write else No_access

let code = function
  | No_access -> '\000'
  | Read_only -> '\001'
  | Read_write -> '\002'

let of_code = function
  | '\000' -> No_access
  | '\001' -> Read_only
  | _ -> Read_write

let check_page t ~domain ~page =
  if domain < 0 || domain >= domain_count then
    invalid_arg "Memory: bad domain";
  if page < 0 || page >= t.pages then invalid_arg "Memory: bad page"

let set_page_perm t ~domain ~page perm =
  check_page t ~domain ~page;
  if Bytes.length t.perms.(domain) = 0 then
    t.perms.(domain) <- Bytes.make t.pages (code (default_perm domain));
  Bytes.set t.perms.(domain) page (code perm)

(* unchecked: [page] is in range and [domain] valid *)
let perm_of t domain page =
  let table = t.perms.(domain) in
  if Bytes.length table = 0 then default_perm domain
  else of_code (Bytes.get table page)

let page_perm t ~domain ~page =
  check_page t ~domain ~page;
  perm_of t domain page

let grant_range t ~domain ~pos ~len perm =
  if len > 0 then
    for page = page_of pos to page_of (pos + len - 1) do
      set_page_perm t ~domain ~page perm
    done

let set_domain t d =
  if d < 0 || d >= domain_count then invalid_arg "Memory.set_domain";
  t.domain <- d

let current_domain t = t.domain

let check t ~pos ~len ~write =
  if pos < 0 || len < 0 || pos + len > data_bytes t then
    invalid_arg "Memory: access out of range";
  if len > 0 then
    for page = page_of pos to page_of (pos + len - 1) do
      let ok =
        match perm_of t t.domain page with
        | Read_write -> true
        | Read_only -> not write
        | No_access -> false
      in
      if not ok then
        raise (Protection_fault { domain = t.domain; page; write })
    done

let checked_read t ~pos ~len = check t ~pos ~len ~write:false
let checked_write t ~pos ~len = check t ~pos ~len ~write:true
